package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/easeml/ci/internal/server"
)

// commitWorkload is a closed loop of CI steps against two tenants, one
// client goroutine (one connection) per tenant. window 0 means sync
// commits; otherwise the client submits windows of async commits and
// polls each job to its end state.
type commitWorkload struct {
	name    string
	specs   []tenantSpec
	durable bool
	window  int
	// perClient is how many commits each client sends per second of
	// --seconds: the run's op count is fixed by the seed and --seconds,
	// so every count repeats exactly.
	perClient int
}

// queueRetain bounds each tenant's finished-job table. The server's
// default (queue.DefaultRetain, 4096) keeps every finished job's full
// prediction vector pollable: at n=64,000 that is 2 GB per tenant, more
// than this benchmark may take from a shared machine.
const queueRetain = 64

// pollBackoff is the async client's fixed wait between polls of a job
// that has not finished yet.
const pollBackoff = time.Millisecond

func commitLarge() *commitWorkload {
	return &commitWorkload{
		name: "commit-large",
		specs: []tenantSpec{
			{id: server.DefaultProject, sc: pattern2(0.01), n: 64000, reliability: 0.999},
			{id: "p1", sc: pattern1(0.01), n: 64000, reliability: 0.999},
		},
		perClient: 64,
	}
}

func commitDurable() *commitWorkload {
	return &commitWorkload{
		name: "commit-durable",
		specs: []tenantSpec{
			{id: server.DefaultProject, sc: pattern2(0.03), n: 8000, reliability: 0.99},
			{id: "p1", sc: pattern1(0.03), n: 8000, reliability: 0.99},
		},
		durable:   true,
		window:    16,
		perClient: 275,
	}
}

func (w *commitWorkload) primary() string {
	if w.window > 0 {
		return "accept"
	}
	return "commit"
}

func (w *commitWorkload) options(dataDir string, tr *tracer) server.MultiOptions {
	opts := server.MultiOptions{
		DataDir: dataDir,
		Tenant:  server.Options{QueueRetain: queueRetain},
	}
	if tr != nil {
		if dataDir != "" {
			opts.Tenant.WALFS = tr.fs(dataDir)
		}
		opts.Tenant.OracleFactory = tr.oracleFactory
	}
	return opts
}

// setup starts a control plane with both tenants at generation 0.
func (w *commitWorkload) setup(seed int64, dataDir string, tr *tracer) (*harness, time.Duration, error) {
	var g server.Genesis
	var projects [][]byte
	for _, spec := range w.specs {
		t := newTenantState(seed, spec)
		if tr != nil {
			tr.registerLabels(spec.id, t.labels)
		}
		if spec.id == server.DefaultProject {
			g = t.genesis()
			continue
		}
		body, err := json.Marshal(t.projectRequest())
		if err != nil {
			return nil, 0, err
		}
		projects = append(projects, body)
	}
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		wrap = tr.wrap
	}
	t0 := time.Now()
	h, err := start(g, w.options(dataDir, tr), projects, wrap)
	return h, time.Since(t0), err
}

// drive runs the measured phase, every client its fixed op sequence, and
// returns each tenant's op log for the verdict replay.
func (w *commitWorkload) drive(h *harness, seed int64, seconds int, tr *tracer, p *phase) [][]step {
	n := seconds * w.perClient
	if w.window > 0 {
		n = (n + w.window - 1) / w.window * w.window
	}
	logs := make([][]step, len(w.specs))
	results := make([]*clientOut, len(w.specs))
	var wg sync.WaitGroup
	p.begin()
	for i, spec := range w.specs {
		i, spec := i, spec
		c := &client{h: h, tr: tr, st: newTenantState(seed, spec), out: newClientOut()}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w.window > 0 {
				c.async(n, w.window)
			} else {
				c.sync(n)
			}
			results[i] = c.out
			logs[i] = c.log
		}()
	}
	wg.Wait()
	p.end()
	for _, r := range results {
		p.add(r)
	}
	return logs
}

// client is one CI pipeline bound to one tenant.
type client struct {
	h   *harness
	tr  *tracer
	st  *tenantState
	out *clientOut
	log []step
	buf []byte
}

// commitBody encodes a commit request into the client's reusable buffer,
// so the client allocates next to nothing per commit.
func (c *client) commitBody(name string, preds []int) []byte {
	b := c.buf[:0]
	b = append(b, `{"model":`...)
	b = strconv.AppendQuote(b, name)
	b = append(b, `,"author":"`+author+`","message":"","predictions":`...)
	b = appendInts(b, preds)
	b = append(b, '}')
	c.buf = b
	return b
}

func (c *client) sync(n int) {
	for i := 0; i < n; i++ {
		name, cand := c.st.candidate()
		body := c.commitBody(name, cand)
		id := c.tr.nextID()
		var resp server.CommitResponse
		rt, err := c.h.call(http.MethodPost, c.st.spec.path("commit"), body, id, http.StatusOK, &resp)
		c.out.ops.add("commit", err)
		if err != nil {
			c.out.errs.keep(err)
			return
		}
		c.out.timed("commit", rt)
		c.out.verdict(resp)
		if c.tr != nil && i%sideEvery == 0 {
			var req server.CommitRequest
			c.out.reqs = append(c.out.reqs, sideTimed(id, c.st.spec.id, "", rt, body, &req, resp))
		}
		c.log = append(c.log, step{verdicts: []verdict{verdictOf(resp)}})
		if resp.Pass != nil && *resp.Pass {
			c.st.baseline = cand
		}
		if resp.NeedNewTestset && !c.rotate() {
			return
		}
	}
}

// rotate installs the next testset generation with the active model's
// predictions on it.
func (c *client) rotate() bool {
	c.st.rotate()
	if c.tr != nil {
		c.tr.registerLabels(c.st.spec.id, c.st.labels)
	}
	body, err := json.Marshal(server.RotateRequest{Labels: c.st.labels, ActivePredictions: c.st.baseline})
	if err == nil {
		_, err = c.h.call(http.MethodPost, c.st.spec.path("testset"), body, 0, http.StatusOK, nil)
	}
	c.out.ops.add("rotate", err)
	if err != nil {
		c.out.errs.keep(err)
		return false
	}
	c.log = append(c.log, step{rotate: true})
	return true
}

// async submits n commits in windows: each window's candidates derive
// from the baseline at the window's start, every job is polled to its end
// state, and the client rotates ahead of time whenever the testset has
// fewer evaluations left than a window.
func (c *client) async(n, window int) {
	used := 0
	cands := make([][]int, window)
	jobs := make([]string, window)
	for sent := 0; sent < n; sent += window {
		if steps-used < window {
			if !c.rotate() {
				return
			}
			used = 0
		}
		for j := 0; j < window; j++ {
			name, cand := c.st.candidate()
			cands[j] = cand
			body := c.commitBody(name, cand)
			id := c.tr.nextID()
			var acc server.JobAcceptedResponse
			rt, err := c.h.call(http.MethodPost, c.st.spec.path("commit/async"), body, id, http.StatusAccepted, &acc)
			c.out.ops.add("accept", err)
			if err != nil {
				c.out.errs.keep(err)
				return
			}
			c.out.timed("accept", rt)
			jobs[j] = acc.JobID
			if c.tr != nil && j%sideEvery == 0 {
				var req server.AsyncCommitRequest
				c.out.reqs = append(c.out.reqs, sideTimed(id, c.st.spec.id, acc.JobID, rt, body, &req, acc))
			}
		}
		st := step{}
		var promoted []int
		for j, job := range jobs {
			resp, ok := c.poll(job)
			if !ok {
				return
			}
			c.out.verdict(resp)
			st.verdicts = append(st.verdicts, verdictOf(resp))
			if resp.Pass != nil && *resp.Pass {
				promoted = cands[j]
			}
			used = resp.Step
		}
		c.log = append(c.log, st)
		if promoted != nil {
			c.st.baseline = promoted
		}
	}
}

// poll waits for one job's end state.
func (c *client) poll(job string) (server.CommitResponse, bool) {
	deadline := time.Now().Add(jobTimeout)
	for {
		var js server.JobStatusResponse
		_, err := c.h.call(http.MethodGet, c.st.spec.path("commit/jobs/"+job), nil, 0, http.StatusOK, &js)
		if err == nil && js.State != "done" && time.Now().After(deadline) {
			err = fmt.Errorf("job %s still %s after %v", job, js.State, jobTimeout)
		}
		if err == nil && js.State == "failed" {
			err = fmt.Errorf("job %s failed: %s", job, js.Error)
		}
		if err == nil && js.State == "done" && js.Result == nil {
			err = fmt.Errorf("job %s done without a result", job)
		}
		if err != nil {
			c.out.ops.add("poll", err)
			c.out.errs.keep(err)
			return server.CommitResponse{}, false
		}
		c.out.ops.add("poll", nil)
		if js.State == "done" {
			return *js.Result, true
		}
		time.Sleep(pollBackoff)
	}
}

// sideEvery samples the commit requests the traced run side-times: the
// side decode of a large body costs about what the server's decode does,
// and timing every request would double the client's work.
const sideEvery = 4

// sideTimed re-does the server's decode of the exact request body and
// encode of the exact answer value with encoding/json and the server's
// wire types, and times each: the traced run's decode and encode layers.
func sideTimed(id uint64, tenant, job string, rt time.Duration, body []byte, req, resp any) reqRecord {
	t0 := time.Now()
	_ = json.NewDecoder(bytes.NewReader(body)).Decode(req)
	t1 := time.Now()
	_ = json.NewEncoder(io.Discard).Encode(resp)
	t2 := time.Now()
	return reqRecord{ID: id, Tenant: tenant, Job: job, RT: rt, Decode: t1.Sub(t0), Encode: t2.Sub(t1)}
}

// check replays every tenant's op log in process and counts verdict
// mismatches as failed commits.
func (w *commitWorkload) check(seed int64, logs [][]step, o ops) error {
	for i, spec := range w.specs {
		bad, err := replay(seed, spec, logs[i])
		if err != nil {
			return err
		}
		o.fail(w.primaryVerdictOp(), bad)
	}
	return nil
}

// primaryVerdictOp is the op type a wrong verdict is charged to: the sync
// commit, or the poll that delivered the async verdict.
func (w *commitWorkload) primaryVerdictOp() string {
	if w.window > 0 {
		return "poll"
	}
	return "commit"
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
