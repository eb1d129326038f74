// Command perfbench is the repository's end-to-end benchmark: for one
// workload and seed it starts server.NewMulti behind a real net/http
// server on a 127.0.0.1 listener, drives it over HTTP from closed-loop
// client goroutines, checks every answer, and prints the metrics as the
// last line of its output. See README.md for the workloads and metrics.
//
//	perfbench --workload commit-large --seed 1 --seconds 20 --trace 0
//	perfbench compare old.jsonl new.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"

	"github.com/easeml/ci/internal/server"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output, the contract with the caller.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full account of one run: the environment, the per-type
// op counts, every end-to-end figure (the workload-specific ones too) and
// the per-layer breakdown when traced. --out appends it as a JSON line;
// perfbench compare reads those lines.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    bool               `json:"trace"`
	Env      envRecord          `json:"env"`
	Ops      ops                `json:"ops"`
	Report   map[string]float64 `json:"report"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	Samples  map[string]int     `json:"samples"`
	Error    string             `json:"error,omitempty"`
	Result   result             `json:"result"`
}

// End-to-end and per-layer metric units, as BENCHMARK.json declares them.
var (
	endToEndUnits = map[string]string{
		"ops_per_s":         "1/s",
		"labels_per_commit": "count",
		"ok_op_share":       "share",
		"setup_s":           "s",
		"retained_heap_mb":  "MB",
	}
	layerUnits = map[string]string{
		"server.http_ms":                 "ms",
		"server.handle_ms":               "ms",
		"server.decode_ms":               "ms",
		"server.encode_ms":               "ms",
		"server.alloc_kb_per_op":         "KB",
		"queue.wait_ms":                  "ms",
		"engine.eval_ms":                 "ms",
		"engine.looks_per_commit":        "count",
		"engine.early_exit_share":        "share",
		"engine.labels_saved_per_commit": "count",
		"labeling.reveal_ms":             "ms",
		"labeling.calls_per_commit":      "count",
		"wal.fsync_ms":                   "ms",
		"wal.write_ms":                   "ms",
		"wal.fsyncs_per_commit":          "count",
		"wal.bytes_per_commit":           "bytes",
		"wal.snapshot_bytes_per_commit":  "bytes",
		"wal.compactions_per_1k_commits": "count",
		"planner.hit_ratio":              "share",
		"bounds.memo_hit_ratio":          "share",
		"bounds.exact_evals_per_miss":    "count",
		"trace.coverage":                 "share",
		"trace.overhead":                 "ratio",
	}
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "commit-large | commit-durable | plan-sweep")
	seed := flag.Int64("seed", 1, "workload seed: every input derives from it")
	seconds := flag.Int("seconds", 10, "sizes the fixed op sequence to last about this long on the reference machine")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: also a traced run, per-layer metrics")
	out := flag.String("out", "", "append the full run record to this JSON-lines file")
	flag.Parse()
	if *seconds < 1 {
		fail(fmt.Errorf("--seconds must be at least 1"))
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		fail(err)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		fail(err)
	}
	rec, err := run(*workload, *seed, *seconds, *traceFlag == 1, work)
	if rmErr := os.RemoveAll(work); err == nil {
		err = rmErr
	}
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fail(err)
	}
	fmt.Printf("record %s\n", line)
	if *out != "" {
		if err := appendLine(*out, line); err != nil {
			fail(err)
		}
	}
	last, err := json.Marshal(rec.Result)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(last))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run measures one workload: set-up several times (setup_s), one
// untraced phase (the end-to-end metrics), the correctness checks, and
// with trace a second, traced phase on a fresh control plane.
func run(name string, seed int64, seconds int, traced bool, work string) (*record, error) {
	rec := &record{Workload: name, Seed: seed, Seconds: seconds, Trace: traced,
		Ops: ops{}, Report: map[string]float64{}, Samples: map[string]int{}}
	var err error
	switch name {
	case "commit-large", "commit-durable":
		w := commitLarge()
		if name == "commit-durable" {
			w = commitDurable()
		}
		err = runCommit(w, rec, traced, work)
	case "plan-sweep":
		err = runPlan(rec, traced)
	default:
		return nil, fmt.Errorf("unknown workload %q (commit-large | commit-durable | plan-sweep)", name)
	}
	if err != nil {
		return nil, err
	}
	attempted, failed := rec.Ops.totals()
	rec.Report["failed_op_share"] = float64(failed) / float64(max(attempted, 1))
	rec.Report["ok_op_share"] = 1 - rec.Report["failed_op_share"]
	rec.Result = result{Correct: failed == 0 && rec.Error == "", Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if traced {
		for k, u := range layerUnits {
			rec.Result.Metrics[k] = metric{Value: rec.Layers[k], Unit: u}
		}
	} else {
		for k, u := range endToEndUnits {
			rec.Result.Metrics[k] = metric{Value: rec.Report[k], Unit: u}
		}
	}
	return rec, nil
}

// setupRepeats is how many times an untraced run sets up; setup_s is
// the median. Between set-ups the shared plan cache and bound memo are
// reset, so each set-up pays what a fresh process pays.
const setupRepeats = 15

func runCommit(w *commitWorkload, rec *record, traced bool, work string) error {
	seed, seconds := rec.Seed, rec.Seconds
	var setups []float64
	var h *harness
	var dataDir string
	for i := 0; i < setupRepeats; i++ {
		dir := ""
		if w.durable {
			dir = filepath.Join(work, fmt.Sprintf("data-%d", i))
		}
		hh, d, err := w.setup(seed, dir, nil)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		if i == setupRepeats-1 {
			h, dataDir = hh, dir
			break
		}
		err = resetCaches(hh)
		rec.Ops.add("reset_caches", err)
		hh.stop()
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	rec.Env = environment(dataDir, w.durable)
	p := newPhase()
	runLog := w.drive(h, seed, seconds, nil, p)
	rec.Ops.merge(p.out.ops)
	keepErr(rec, p.out.errs.err)
	rec.Report["retained_heap_mb"] = retainedHeapMB()
	if w.durable {
		secs, err := w.durability(h, seed, dataDir, work, rec.Ops)
		keepErr(rec, err)
		rec.Report["recovery_s"] = median(secs)
	}
	h.stop()
	if err := w.check(seed, runLog, rec.Ops); err != nil {
		return err
	}
	commitReport(w, rec, p)
	rec.Report["setup_s"] = median(setups)

	if !traced {
		return nil
	}
	tr := newTracer()
	dir := ""
	if w.durable {
		dir = filepath.Join(work, "data-traced")
	}
	th, _, err := w.setup(seed, dir, tr)
	if err != nil {
		return fmt.Errorf("traced setup: %w", err)
	}
	before, err := metrics(th)
	rec.Ops.add("metrics", err)
	if err != nil {
		th.stop()
		return err
	}
	tp := newPhase()
	tlog := w.drive(th, seed, seconds, tr, tp)
	after, err := metrics(th)
	rec.Ops.add("metrics", err)
	th.stop()
	if err != nil {
		return err
	}
	rec.Ops.merge(tp.out.ops)
	keepErr(rec, tp.out.errs.err)
	if err := w.check(seed, tlog, rec.Ops); err != nil {
		return err
	}
	rec.Layers = layers(layerInput{spans: tr.window(tp.t0, tp.t1), reqs: tp.out.reqs, sync: w.window == 0,
		out: &tp.out, before: before, after: after})
	rec.Layers["server.alloc_kb_per_op"] = float64(p.alloc1-p.alloc0) / 1024 / float64(max(p.out.commits, 1))
	rec.Layers["trace.overhead"] = rec.Report["ops_per_s"] / tp.rate()
	return tr.writeSpans(filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed)), tp.out.reqs)
}

// commitReport fills the end-to-end figures of a commit workload's
// untraced phase.
func commitReport(w *commitWorkload, rec *record, p *phase) {
	commits := float64(p.out.commits)
	rec.Report["ops_per_s"] = p.rate()
	rec.Report["commits_per_s"] = rec.Report["ops_per_s"]
	rec.Report["elapsed_s"] = p.seconds()
	rec.Report["op_p50_ms"] = p.sliceMedian(w.primary())
	rec.Report["op_p99_ms"] = quantile(p.latencies(w.primary()), 0.99)
	rec.Report[w.primary()+"_p50_ms"] = rec.Report["op_p50_ms"]
	rec.Report[w.primary()+"_p99_ms"] = rec.Report["op_p99_ms"]
	rec.Report["labels_per_commit"] = float64(p.out.labels) / max(commits, 1)
	rec.Samples[w.primary()] = len(p.out.lat[w.primary()])
	rec.Samples["commits"] = p.out.commits
}

func runPlan(rec *record, traced bool) error {
	seed, seconds := rec.Seed, rec.Seconds
	var setups []float64
	var h *harness
	for i := 0; i < setupRepeats; i++ {
		hh, d, err := planSetup(seed, nil)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		err = resetCaches(hh)
		rec.Ops.add("reset_caches", err)
		if i == setupRepeats-1 {
			h = hh
			break
		}
		hh.stop()
	}
	rec.Env = environment("", false)
	p := newPhase()
	runLog := planDrive(h, seed, seconds, nil, p)
	rec.Ops.merge(p.allOps())
	keepErr(rec, p.out.errs.err)
	rec.Report["retained_heap_mb"] = retainedHeapMB()
	h.stop()
	if err := planCheck(runLog, rec.Ops); err != nil {
		return err
	}
	batches := len(p.out.lat["plan_batch"])
	rec.Report["ops_per_s"] = p.rate()
	rec.Report["plan_queries_per_s"] = rec.Report["ops_per_s"]
	rec.Report["elapsed_s"] = p.seconds()
	rec.Report["op_p50_ms"] = p.sliceMedian("plan_batch")
	rec.Report["op_p99_ms"] = quantile(p.latencies("plan_batch"), 0.99)
	rec.Report["plan_batch_p50_ms"] = rec.Report["op_p50_ms"]
	rec.Report["plan_batch_p99_ms"] = rec.Report["op_p99_ms"]
	rec.Report["labels_per_commit"] = runLog.quotedLabels()
	rec.Report["setup_s"] = median(setups)
	rec.Samples["plan_batch"] = batches
	rec.Samples["queries"] = p.out.queries

	if !traced {
		return nil
	}
	tr := newTracer()
	th, _, err := planSetup(seed, tr)
	if err != nil {
		return fmt.Errorf("traced setup: %w", err)
	}
	err = resetCaches(th)
	rec.Ops.add("reset_caches", err)
	tp := newPhase()
	var before, after server.MultiMetricsResponse
	tp.onMeasure = func() {
		before, err = metrics(th)
		rec.Ops.add("metrics", err)
	}
	tlog := planDrive(th, seed, seconds, tr, tp)
	after, err = metrics(th)
	rec.Ops.add("metrics", err)
	th.stop()
	rec.Ops.merge(tp.allOps())
	keepErr(rec, tp.out.errs.err)
	if err := planCheck(tlog, rec.Ops); err != nil {
		return err
	}
	rec.Layers = layers(layerInput{spans: tr.window(tp.t0, tp.t1), reqs: tp.out.reqs, out: &tp.out, before: before, after: after})
	rec.Layers["server.alloc_kb_per_op"] = float64(p.alloc1-p.alloc0) / 1024 / float64(max(batches, 1))
	rec.Layers["trace.overhead"] = rec.Report["ops_per_s"] / tp.rate()
	return tr.writeSpans(filepath.Join(".bench_build", "traces", fmt.Sprintf("plan-sweep-seed%d.jsonl", seed)), tp.out.reqs)
}

func keepErr(rec *record, err error) {
	if err != nil && rec.Error == "" {
		rec.Error = err.Error()
	}
}

func resetCaches(h *harness) error {
	_, err := h.call(http.MethodPost, "/api/v1/admin/reset-caches", nil, 0, http.StatusOK, nil)
	return err
}

func metrics(h *harness) (server.MultiMetricsResponse, error) {
	var m server.MultiMetricsResponse
	_, err := h.call(http.MethodGet, "/api/v1/metrics", nil, 0, http.StatusOK, &m)
	return m, err
}

// retainedHeapMB is the live heap after forced collections: state the
// run left behind in the server (and the small client state).
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
