package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"github.com/easeml/ci/internal/notify"
	"github.com/easeml/ci/internal/wal"
)

// TestDatasetFromLabelsAllocations: a 64,000-label testset costs the
// dataset header and one label column, not a feature vector per example.
func TestDatasetFromLabelsAllocations(t *testing.T) {
	labels := make([]int, 64000)
	for i := range labels {
		labels[i] = i % testClasses
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := datasetFromLabels("rotated", labels, testClasses); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("datasetFromLabels at n=64000: %.0f allocations, want <= 2", allocs)
	}
}

// TestServerTestsetsAreLabelOnly: the genesis testset and a testset
// installed through the rotate handler carry labels only, and a durable
// restart from a snapshot installs a label-only testset too.
func TestServerTestsetsAreLabelOnly(t *testing.T) {
	g, labels := durableGenesis(t, 3, testSize)
	dir := t.TempDir()
	srv, err := NewDurable(g, dir, Options{Webhooks: notify.NewOutbox()})
	if err != nil {
		t.Fatal(err)
	}
	labelOnly := func(when string) {
		srv.mu.Lock()
		ds := srv.eng.Testsets().Current().Data
		srv.mu.Unlock()
		if !ds.LabelOnly() {
			t.Errorf("%s: testset %q has %d feature rows", when, ds.Name, len(ds.X))
		}
	}
	labelOnly("genesis")
	rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/testset", RotateRequest{
		Labels: labels, ActivePredictions: goodPredictions(t, labels, 0.9, 20),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("rotate = %d: %s", rec.Code, rec.Body.String())
	}
	labelOnly("rotated")
	srv.Close() // compacts: the restart below recovers from a snapshot
	if srv, err = NewDurable(g, dir, Options{Webhooks: notify.NewOutbox()}); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	labelOnly("recovered")
}

// TestDurableRecoveryRejectsNonIndexRows: a snapshot's testset features
// must be the index rows [[0],[1],…] the engine writes for a label-only
// testset; recovery refuses any other X as a corrupt snapshot, and
// accepts the untouched snapshot.
func TestDurableRecoveryRejectsNonIndexRows(t *testing.T) {
	g, labels := durableGenesis(t, 3, testSize)
	src := t.TempDir()
	srv, err := NewDurable(g, src, Options{Webhooks: notify.NewOutbox()})
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{
		Model: "m0", Author: "dev", Predictions: goodPredictions(t, labels, 0.9, 10),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("commit = %d: %s", rec.Code, rec.Body.String())
	}
	srv.Close()
	log, snap, _, err := wal.Open(src, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	if snap == nil {
		t.Fatal("Close did not compact")
	}
	for _, tc := range []struct {
		name   string
		tamper func(x [][]float64) [][]float64
		want   string
	}{
		{"untouched", func(x [][]float64) [][]float64 { return x }, ""},
		{"wrong index", func(x [][]float64) [][]float64 { x[3] = []float64{7}; return x }, "row 3 is [7], want the index row [3]"},
		{"wide row", func(x [][]float64) [][]float64 { x[0] = []float64{0, 1}; return x }, "row 0 is [0 1]"},
		{"fractional index", func(x [][]float64) [][]float64 { x[5] = []float64{5.5}; return x }, "row 5 is [5.5]"},
		{"short", func(x [][]float64) [][]float64 { return x[:len(x)-1] }, "feature rows for"},
		{"missing", func([][]float64) [][]float64 { return nil }, "0 feature rows for"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ws walSnapshot
			if err := json.Unmarshal(snap.Data, &ws); err != nil {
				t.Fatal(err)
			}
			ws.Engine.Testset.X = tc.tamper(ws.Engine.Testset.X)
			dir := t.TempDir()
			log, _, _, err := wal.Open(dir, wal.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := log.Compact(ws); err != nil {
				t.Fatal(err)
			}
			log.Close()
			srv, err := NewDurable(g, dir, Options{Webhooks: notify.NewOutbox()})
			if tc.want == "" {
				if err != nil {
					t.Fatalf("untouched snapshot refused: %v", err)
				}
				srv.Close()
				return
			}
			if err == nil {
				srv.Close()
				t.Fatal("recovery accepted a snapshot whose testset rows are not the index column")
			}
			if !strings.Contains(err.Error(), "snapshot: corrupt testset") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want a corrupt-snapshot error containing %q", err, tc.want)
			}
		})
	}
}
