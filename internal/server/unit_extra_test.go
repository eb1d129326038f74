package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/easeml/ci/internal/engine"
	"github.com/easeml/ci/internal/queue"
	"github.com/easeml/ci/internal/script"
)

// TestCommitErrorStatusMapping pins the error→status contract of the
// commit executor: 400 malformed, 409 state-moved conflicts, 503 when
// the log is poisoned, 422 for evaluation failures.
func TestCommitErrorStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{badRequestError{"short predictions"}, http.StatusBadRequest},
		{engine.ErrNeedNewTestset, http.StatusConflict},
		{queue.ErrCanceled, http.StatusConflict},
		{fmt.Errorf("append: %w", errWALPoisoned), http.StatusServiceUnavailable},
		{errors.New("evaluation blew up"), http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		if got := commitErrorStatus(tc.err); got != tc.want {
			t.Errorf("commitErrorStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestDatasetFromLabelsRejectsBadLabels(t *testing.T) {
	if _, err := datasetFromLabels("x", []int{0, 1, 5}, 2); err == nil {
		t.Error("out-of-range label should fail")
	}
	if _, err := datasetFromLabels("x", []int{0, -1}, 2); err == nil {
		t.Error("negative label should fail")
	}
}

// TestMethodNotAllowed sweeps every endpoint with the wrong verb.
func TestMethodNotAllowed(t *testing.T) {
	srv, _ := newServerWith(t, script.AdaptivityFull, 3, testSize, Options{})
	defer srv.Close()
	cases := []struct{ method, path string }{
		{http.MethodPost, "/api/v1/plan"},
		{http.MethodPost, "/api/v1/status"},
		{http.MethodPost, "/api/v1/history"},
		{http.MethodPost, "/api/v1/metrics"},
		{http.MethodGet, "/api/v1/commit"},
		{http.MethodGet, "/api/v1/testset"},
		{http.MethodGet, "/api/v1/admin/reset-caches"},
	}
	for _, tc := range cases {
		rec, _ := doJSON(t, srv, tc.method, tc.path, nil)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", tc.method, tc.path, rec.Code)
		}
	}
}

// TestStorageInputRejections pins the refusals of the backup/restore
// helpers and the health endpoints on inputs the round-trip suites never
// produce: unsafe tarball entry names, staged directories without a
// verifiable genesis fingerprint, and non-GET health probes.
func TestStorageInputRejections(t *testing.T) {
	for name, want := range map[string]string{
		"/etc/passwd":      "unsafe tarball entry",
		"../x/wal.log":     "unsafe tarball entry",
		".":                "unsafe tarball entry",
		"a/b/c.log":        "unexpected tarball entry",
		"./p/wal.log":      "",
		"_control/wal.log": "",
	} {
		_, err := sanitizeTarName(name)
		if (want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), want)) {
			t.Errorf("sanitizeTarName(%q) = %v, want %q", name, err, want)
		}
	}
	for files, want := range map[[2]string]string{
		{"snapshot.json", "{"}:                               "backup snapshot:",
		{"snapshot.json", `{"s":1,"c":0,"d":[]}`}:            "backup snapshot payload:",
		{"snapshot.json", `{"s":1,"c":0,"d":{}}`}:            "carries no genesis fingerprint",
		{"wal.log", `{"s":1,"t":"job.cancel","c":0,"d":{}}`}: "does not begin with a genesis record",
		{"wal.log", `{"s":1,"t":"genesis","c":0,"d":{}}`}:    "genesis record carries no fingerprint",
		{"other", ""}: "neither a snapshot nor a log",
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, files[0]), []byte(files[1]), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := backupFingerprint(dir); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("backupFingerprint(%s %s) = %v, want %q", files[0], files[1], err, want)
		}
	}
	m := newTestMulti(t, MultiOptions{})
	defer m.Close()
	for _, path := range []string{"/healthz", "/readyz"} {
		rec := httptest.NewRecorder()
		m.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d", path, rec.Code)
		}
	}
}
