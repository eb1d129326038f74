package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"github.com/easeml/ci/internal/core"
	"github.com/easeml/ci/internal/interval"
	"github.com/easeml/ci/internal/script"
	"github.com/easeml/ci/internal/server"
)

// The plan-sweep workload is a dashboard sweeping the sample-size
// planner: each client sends batches of plan queries drawn from a Zipf
// stream over a query space larger than the plan cache.
const (
	planBatch = 64
	// planPerClient is how many batches each client sends per second of
	// --seconds; planWarmup batches fill the plan cache first, untimed.
	planPerClient = 900
	planWarmup    = 250
	planZipfS     = 1.01
)

// The query space: condition template x tolerance x reliability x steps,
// 17 x 8 x 6 x 8 = 6,528 distinct plans against the 4,096-entry cache.
// Ten templates are coarse-to-fine "n > 0.9x" tests.
var (
	planTemplates = func() []string {
		t := []string{
			"n - o > 0.02 +/- %[1]g",
			"n - o > 0.05 +/- %[1]g",
			"d < 0.1 +/- %[1]g /\\ n - o > -0.02 +/- %[1]g",
			"d < 0.2 +/- %[1]g /\\ n - o > -0.01 +/- %[1]g",
			"n > 0.8 +/- %[1]g",
			"n > 0.7 +/- %[1]g",
			"d < 0.05 +/- %[1]g",
		}
		for x := 0; x < 10; x++ {
			t = append(t, fmt.Sprintf("n > 0.9%d +/- %%[1]g", x))
		}
		return t
	}()
	planTolerances   = []float64{0.01, 0.015, 0.02, 0.025, 0.03, 0.04, 0.05, 0.06}
	planReliabilties = []float64{0.9, 0.95, 0.99, 0.995, 0.999, 0.9999}
	planSteps        = []int{1, 2, 4, 8, 16, 32, 64, 128}
)

func planSpace() []server.PlanQuery {
	var qs []server.PlanQuery
	for _, t := range planTemplates {
		for _, tol := range planTolerances {
			for _, rel := range planReliabilties {
				for _, st := range planSteps {
					rel, st := rel, st
					qs = append(qs, server.PlanQuery{Condition: fmt.Sprintf(t, tol), Reliability: &rel, Steps: &st})
				}
			}
		}
	}
	return qs
}

// planGenesis is the dashboard tenant's own script; its condition is
// outside the query space, so every query is an ad-hoc plan.
func planGenesis(seed int64) server.Genesis {
	labels := genLabels(stream(seed, "plan", "labels"), 1000, classes)
	return server.Genesis{
		Condition:        "n - o > 0.01 +/- 0.02",
		Reliability:      0.99,
		Mode:             interval.FPFree,
		Adaptivity:       script.Adaptivity{Kind: script.AdaptivityFull},
		Steps:            steps,
		Labels:           labels,
		Classes:          classes,
		ModelName:        modelName,
		ModelPredictions: genModel(stream(seed, "plan", "model"), labels, classes, 0.8),
	}
}

func planSetup(seed int64, tr *tracer) (*harness, time.Duration, error) {
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		wrap = tr.wrap
	}
	t0 := time.Now()
	h, err := start(planGenesis(seed), server.MultiOptions{}, nil, wrap)
	return h, time.Since(t0), err
}

// planBatches draws one client's batches, each as query indices and the
// encoded request body: a seeded Zipf stream over the query space through
// a seeded permutation, so the popular plans differ per seed. The bodies
// are built before the phase starts, as a dashboard's sweep is prepared
// up front.
func planBatches(seed int64, client, n int, space []server.PlanQuery) (batches [][]int, bodies [][]byte) {
	frags := make([][]byte, len(space))
	for i, q := range space {
		b, err := json.Marshal(q)
		if err != nil {
			panic(err) // the query space is fixed and always encodes
		}
		frags[i] = b
	}
	perm := stream(seed, "plan", "perm").Perm(len(space))
	z := rand.NewZipf(stream(seed, "plan", "client", client), planZipfS, 1, uint64(len(space)-1))
	for i := 0; i < n; i++ {
		batch := make([]int, planBatch)
		body := []byte(`{"queries":[`)
		for j := range batch {
			batch[j] = perm[z.Uint64()]
			if j > 0 {
				body = append(body, ',')
			}
			body = append(body, frags[batch[j]]...)
		}
		batches = append(batches, batch)
		bodies = append(bodies, append(body, "]}"...))
	}
	return batches, bodies
}

// planSample is one answered query the check recomputes.
type planSample struct {
	query int
	got   server.PlanResponse
}

type planRun struct {
	samples []planSample
	// quoted maps every distinct query answered to the labels per commit
	// its plan quotes: the labelled testset over the steps it serves.
	quoted map[int]float64
}

// quotedLabels is the mean labels-per-commit quote over the distinct
// plans answered: the paper's label cost as the planner states it.
func (r *planRun) quotedLabels() float64 {
	sum := 0.0
	for _, q := range r.quoted {
		sum += q
	}
	return sum / float64(max(len(r.quoted), 1))
}

// planDrive sends the warm-up batches, then the measured ones.
func planDrive(h *harness, seed int64, seconds int, tr *tracer, p *phase) *planRun {
	space := planSpace()
	n := seconds * planPerClient
	const clients = 2
	batches := make([][][]int, clients)
	bodies := make([][][]byte, clients)
	for c := range batches {
		batches[c], bodies[c] = planBatches(seed, c, planWarmup+n, space)
	}
	run := &planRun{quoted: map[int]float64{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	sendAll := func(from, to int, measured bool) {
		results := make([]*clientOut, clients)
		for c := 0; c < clients; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := newClientOut()
				check := stream(seed, "plan", "check", c, from)
				var samples []planSample
				quoted := map[int]float64{}
				for i := from; i < to; i++ {
					id := tr.nextID()
					if !measured {
						id = 0
					}
					batch, body := batches[c][i], bodies[c][i]
					var resp server.BatchPlanResponse
					rt, err := h.call(http.MethodPost, "/api/v1/plan/batch", body, id, http.StatusOK, &resp)
					if err == nil {
						err = shapeCheck(space, batch, resp)
					}
					out.ops.add("plan_batch", err)
					if err != nil {
						out.errs.keep(err)
						continue
					}
					out.timed("plan_batch", rt)
					out.did(len(resp.Results))
					out.queries += len(resp.Results)
					for j, res := range resp.Results {
						quoted[batch[j]] = float64(res.Plan.LabeledN) / float64(res.Plan.Steps)
						if check.Intn(64) == 0 {
							samples = append(samples, planSample{query: batch[j], got: *res.Plan})
						}
					}
					if measured && tr != nil {
						var req server.BatchPlanRequest
						out.reqs = append(out.reqs, sideTimed(id, server.DefaultProject, "", rt, body, &req, resp))
					}
				}
				mu.Lock()
				run.samples = append(run.samples, samples...)
				for q, v := range quoted {
					run.quoted[q] = v
				}
				mu.Unlock()
				results[c] = out
			}()
		}
		wg.Wait()
		if measured {
			for _, r := range results {
				p.add(r)
			}
		} else {
			for _, r := range results {
				p.addUntimed(r)
			}
		}
	}
	sendAll(0, planWarmup, false)
	p.begin()
	sendAll(planWarmup, planWarmup+n, true)
	p.end()
	return run
}

// shapeCheck verifies that every slot of a batch answer is a plan for
// the query asked.
func shapeCheck(space []server.PlanQuery, batch []int, resp server.BatchPlanResponse) error {
	if len(resp.Results) != len(batch) {
		return fmt.Errorf("plan batch: %d results for %d queries", len(resp.Results), len(batch))
	}
	for j, res := range resp.Results {
		q := space[batch[j]]
		if res.Error != "" || res.Plan == nil {
			return fmt.Errorf("plan batch: query %q failed: %s", q.Condition, res.Error)
		}
		if res.Plan.Condition != q.Condition || res.Plan.Reliability != *q.Reliability || res.Plan.Steps != *q.Steps {
			return fmt.Errorf("plan batch: slot %d answers %q, asked %q", j, res.Plan.Condition, q.Condition)
		}
	}
	return nil
}

// planCheck recomputes the sampled plans with the uncached planner (the
// computation ci.PlanForConfig caches) and counts every difference as a
// failed batch.
func planCheck(run *planRun, o ops) error {
	space := planSpace()
	bad := 0
	for _, s := range run.samples {
		q := space[s.query]
		cfg, err := script.New(q.Condition, *q.Reliability, interval.FPFree, script.Adaptivity{Kind: script.AdaptivityFull}, *q.Steps)
		if err != nil {
			return err
		}
		plan, err := core.PlanForConfig(cfg, core.DefaultOptions())
		if err != nil {
			return err
		}
		if server.NewPlanResponse(cfg, plan) != s.got {
			bad++
		}
	}
	o.fail("plan_batch", bad)
	return nil
}
