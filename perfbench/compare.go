package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare reads: each
// end-to-end metric's direction and regression bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two sets of run records (perfbench --out files)
// workload by workload: each end-to-end metric's median, its change, and
// whether the change is worse than the metric's bound. It refuses records
// from different core counts: results move with GOMAXPROCS, so such a
// comparison says nothing about the code.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bench := fs.String("benchmark", "BENCHMARK.json", "bounds and directions of the end-to-end metrics")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-benchmark BENCHMARK.json] old.jsonl new.jsonl")
		return 2
	}
	old, err := readRecords(fs.Arg(0))
	if err == nil {
		var cur []record
		cur, err = readRecords(fs.Arg(1))
		if err == nil {
			err = sameCores(append(append([]record(nil), old...), cur...))
		}
		if err == nil {
			err = printComparison(old, cur, *bench)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

func sameCores(recs []record) error {
	for _, r := range recs[1:] {
		if r.Env.Nproc != recs[0].Env.Nproc || r.Env.GOMAXPROCS != recs[0].Env.GOMAXPROCS {
			return fmt.Errorf("refusing to compare runs on %d/%d cores (nproc/GOMAXPROCS) with runs on %d/%d",
				recs[0].Env.Nproc, recs[0].Env.GOMAXPROCS, r.Env.Nproc, r.Env.GOMAXPROCS)
		}
	}
	return nil
}

func printComparison(old, cur []record, benchPath string) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	workloads := map[string]bool{}
	for _, r := range append(append([]record(nil), old...), cur...) {
		workloads[r.Workload] = true
	}
	names := make([]string, 0, len(workloads))
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	fmt.Printf("%-16s %-18s %12s %12s %8s %s\n", "workload", "metric", "old", "new", "change", "verdict")
	for _, w := range names {
		for _, m := range bf.EndToEnd {
			a, okA := medianOf(old, w, m.Name)
			b, okB := medianOf(cur, w, m.Name)
			if !okA || !okB {
				fmt.Printf("%-16s %-18s runs on one side only\n", w, m.Name)
				continue
			}
			change := 0.0
			if a != 0 {
				change = (b - a) / a
			}
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "within bound"
			if worse > m.Bound {
				verdict = fmt.Sprintf("WORSE than the %.0f%% bound", 100*m.Bound)
			}
			fmt.Printf("%-16s %-18s %12.4g %12.4g %+7.1f%% %s\n", w, m.Name, a, b, 100*change, verdict)
		}
	}
	return nil
}

func medianOf(recs []record, workload, name string) (float64, bool) {
	var xs []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok && r.Workload == workload {
			xs = append(xs, m.Value)
		}
	}
	return median(xs), len(xs) > 0
}
