package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"github.com/easeml/ci/internal/server"
)

// harness is one control plane served over a real loopback socket: the
// server and its client live in this process and talk only HTTP.
type harness struct {
	m      *server.Multi
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
}

// start builds the control plane, starts the listener, and registers the
// projects over HTTP: everything up to the first workload request, which
// is what setup_s times. wrap, when set, wraps the handler (the traced
// run's span recorder).
func start(g server.Genesis, opts server.MultiOptions, projects [][]byte, wrap func(http.Handler) http.Handler) (*harness, error) {
	m, err := server.NewMulti(g, opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	var h http.Handler = m
	if wrap != nil {
		h = wrap(m)
	}
	hs := &harness{
		m:      m,
		srv:    &http.Server{Handler: h},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
			// A hung server must fail the run, not outlive its time limit.
			Timeout: requestTimeout,
		},
	}
	go func() { hs.served <- hs.srv.Serve(ln) }()
	for _, body := range projects {
		if _, err := hs.call(http.MethodPost, "/api/v1/projects", body, 0, http.StatusCreated, nil); err != nil {
			hs.stop()
			return nil, fmt.Errorf("creating project: %w", err)
		}
	}
	return hs, nil
}

// stop shuts the listener down, waits for the serve loop to return and
// closes the control plane (which drains its queues).
func (h *harness) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = h.srv.Shutdown(ctx)
	<-h.served
	h.client.CloseIdleConnections()
	h.m.Close()
}

// call sends one request and reads the whole answer. The returned
// duration runs from send to the last byte of the body. A status other
// than want, a transport error or an undecodable body is an error. reqID,
// when non-zero, travels in the X-Request-Id header so the traced run can
// join client and server spans.
func (h *harness) call(method, path string, body []byte, reqID uint64, want int, out any) (time.Duration, error) {
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != 0 {
		req.Header.Set(requestIDHeader, strconv.FormatUint(reqID, 10))
	}
	t0 := time.Now()
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt := time.Since(t0)
	if err != nil {
		return rt, err
	}
	if resp.StatusCode != want {
		return rt, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return rt, fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
		}
	}
	return rt, nil
}

const requestIDHeader = "X-Request-Id"

// requestTimeout bounds one request, and jobTimeout one async job from
// its first poll to its end state.
const (
	requestTimeout = 30 * time.Second
	jobTimeout     = 30 * time.Second
)

// opCounts tallies one request type.
type opCounts struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// ops tallies every request type a run issues. Each client goroutine owns
// one and the run merges them, so no locking is needed.
type ops map[string]*opCounts

func (o ops) add(kind string, err error) {
	c := o[kind]
	if c == nil {
		c = &opCounts{}
		o[kind] = c
	}
	c.Attempted++
	if err != nil {
		c.Failed++
	} else {
		c.Succeeded++
	}
}

// fail records a failure found after the fact (a wrong verdict).
func (o ops) fail(kind string, n int) {
	c := o[kind]
	if c == nil || n == 0 {
		return
	}
	c.Succeeded -= n
	c.Failed += n
}

func (o ops) merge(other ops) {
	for k, c := range other {
		d := o[k]
		if d == nil {
			d = &opCounts{}
			o[k] = d
		}
		d.Attempted += c.Attempted
		d.Succeeded += c.Succeeded
		d.Failed += c.Failed
	}
}

func (o ops) totals() (attempted, failed int) {
	for _, c := range o {
		attempted += c.Attempted
		failed += c.Failed
	}
	return attempted, failed
}

// errFirst keeps the first error a run saw, for the diagnostic line.
type errFirst struct{ err error }

func (e *errFirst) keep(err error) {
	if err != nil && e.err == nil {
		e.err = err
	}
}
