package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/easeml/ci/internal/server"
)

// recoveries is how many crash copies recovery_s is the median over.
const recoveries = 3

// durability checks what a crash would leave. With every job terminal
// and before Close compacts, the data dir is copied; NewMulti on each
// copy is timed, and every tenant's /status and /history on the recovered
// control plane must equal the live server's.
func (w *commitWorkload) durability(h *harness, seed int64, dataDir, tmp string, o ops) ([]float64, error) {
	live := map[string][]byte{}
	for _, spec := range w.specs {
		for _, rest := range []string{"status", "history"} {
			body, err := get(h, spec.path(rest))
			o.add(rest, err)
			if err != nil {
				return nil, err
			}
			live[spec.path(rest)] = body
		}
	}
	g := newTenantState(seed, w.specs[0]).genesis()
	var secs []float64
	for i := 0; i < recoveries; i++ {
		dir := filepath.Join(tmp, fmt.Sprintf("crash-%d", i))
		if err := copyDir(dataDir, dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		m, err := server.NewMulti(g, w.options(dir, nil))
		if err != nil {
			return nil, fmt.Errorf("recovering a crash copy: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		for path, want := range live {
			rec := httptest.NewRecorder()
			m.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			var diff error
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				diff = fmt.Errorf("recovered %s differs from the live server's", path)
			}
			o.add("recovered_read", diff)
		}
		m.Close()
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return secs, nil
}

func get(h *harness, path string) ([]byte, error) {
	resp, err := h.client.Get(h.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, err
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
