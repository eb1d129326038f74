//go:build go1.24

package server

import (
	"net/http"
	"runtime"
	"testing"
	"weak"

	"github.com/easeml/ci/internal/script"
	"github.com/easeml/ci/internal/testset"
)

// TestRotateReleasesRetiredTestset: once the rotate handler has installed
// a new testset, nothing in the server keeps the retired one, or its
// labels, alive. A server that rotates without end holds one testset.
func TestRotateReleasesRetiredTestset(t *testing.T) {
	srv, labels := newTestServer(t, script.AdaptivityFull)
	defer srv.Close()
	current := func() *testset.Testset {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.eng.Testsets().Current()
	}
	rotate := func() {
		t.Helper()
		rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/testset", RotateRequest{
			Labels: labels, ActivePredictions: goodPredictions(t, labels, 0.9, 20),
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("rotate = %d: %s", rec.Code, rec.Body.String())
		}
	}
	for gen := 1; gen <= 2; gen++ {
		ts := current()
		retired, data := weak.Make(ts), weak.Make(ts.Data)
		ts = nil
		rotate()
		runtime.GC()
		if retired.Value() != nil {
			t.Errorf("generation %d testset is still reachable after rotation", gen)
		}
		if data.Value() != nil {
			t.Errorf("generation %d dataset is still reachable after rotation", gen)
		}
	}
}
