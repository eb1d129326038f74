package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/easeml/ci/internal/labeling"
	"github.com/easeml/ci/internal/server"
	"github.com/easeml/ci/internal/wal"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; WAL spans carry the record type and job they wrote, oracle
// spans the tenant whose labels they revealed.
type span struct {
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	Job    string `json:"job,omitempty"`
	Record string `json:"record,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the traced run and writes them out
// when the run ends. Every span comes from a public seam: a handler
// around Multi.ServeHTTP, a wal.FS around wal.OSFS (Options.WALFS) and a
// label oracle around labeling.NewTruthOracle (Options.OracleFactory).
type tracer struct {
	t0  time.Time
	ids atomic.Uint64

	mu       sync.Mutex
	spans    []span
	byLabels map[uint64]string // testset labels hash -> tenant
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), byLabels: map[uint64]string{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// nextID hands out request IDs; an untraced run (nil tracer) sends none.
func (t *tracer) nextID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// reqRecord is the client's side of one traced request: the round trip
// and the side-timed decode and encode of its exact body and answer.
type reqRecord struct {
	ID             uint64
	Tenant, Job    string
	RT             time.Duration
	Decode, Encode time.Duration
}

// wrap records a server.handle span around the control plane's
// ServeHTTP.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		h.ServeHTTP(w, r)
		end := t.now()
		id, _ := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
		if id == 0 {
			return
		}
		t.add(span{Req: id, Name: "server.handle", Parent: "client", Tenant: tenantOfPath(r.URL.Path), Start: start, End: end})
	})
}

func tenantOfPath(p string) string {
	if rest, ok := strings.CutPrefix(p, "/api/v1/projects/"); ok {
		id, _, _ := strings.Cut(rest, "/")
		return id
	}
	return server.DefaultProject
}

// registerLabels tells the oracle factory which tenant a testset's labels
// belong to: the factory is handed only the generation and its labels.
func (t *tracer) registerLabels(tenant string, labels []int) {
	t.mu.Lock()
	t.byLabels[hashLabels(labels)] = tenant
	t.mu.Unlock()
}

func hashLabels(labels []int) uint64 {
	h := fnv.New64a()
	var b []byte
	for _, y := range labels {
		b = strconv.AppendInt(b[:0], int64(y), 10)
		_, _ = h.Write(b)
	}
	return h.Sum64()
}

// oracleFactory is Options.OracleFactory for the traced run: the truth
// oracle the server would use anyway, timed.
func (t *tracer) oracleFactory(gen int, truth []int) labeling.Oracle {
	t.mu.Lock()
	tenant := t.byLabels[hashLabels(truth)]
	t.mu.Unlock()
	return &timedOracle{t: t, tenant: tenant, o: labeling.NewTruthOracle(truth)}
}

type timedOracle struct {
	t      *tracer
	tenant string
	o      *labeling.TruthOracle
}

func (o *timedOracle) Label(i int) (int, error) {
	start := o.t.now()
	y, err := o.o.Label(i)
	o.t.add(span{Name: "labeling.reveal", Parent: "engine.eval", Tenant: o.tenant, Bytes: 1, Start: start, End: o.t.now()})
	return y, err
}

func (o *timedOracle) LabelBatch(idx []int) ([]int, error) {
	start := o.t.now()
	ys, err := o.o.LabelBatch(idx)
	o.t.add(span{Name: "labeling.reveal", Parent: "engine.eval", Tenant: o.tenant, Bytes: len(idx), Start: start, End: o.t.now()})
	return ys, err
}

// fs is Options.WALFS for the traced run: wal.OSFS with every write and
// fsync timed and keyed by the tenant directory under root.
func (t *tracer) fs(root string) wal.FS { return &timedFS{t: t, root: root} }

type timedFS struct {
	wal.OSFS
	t    *tracer
	root string
}

func (f *timedFS) tenant(name string) string {
	rel, err := filepath.Rel(f.root, name)
	if err != nil {
		return ""
	}
	first, _, _ := strings.Cut(filepath.ToSlash(rel), "/")
	return first
}

func (f *timedFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	file, err := f.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, t: f.t, tenant: f.tenant(name), snapshot: strings.HasSuffix(name, ".tmp")}, nil
}

func (f *timedFS) Open(name string) (wal.File, error) {
	file, err := f.OSFS.Open(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, t: f.t, tenant: f.tenant(name), record: "dir"}, nil
}

// timedFile times writes and fsyncs. The log writes one record per Write
// and syncs under the server's table lock, so a Sync belongs to the
// record written last on the same file.
type timedFile struct {
	wal.File
	t        *tracer
	tenant   string
	snapshot bool
	record   string
	job      string
}

func (f *timedFile) Write(p []byte) (int, error) {
	if f.snapshot {
		f.record, f.job = "snapshot", ""
	} else {
		f.record, f.job = recordOf(p)
	}
	start := f.t.now()
	n, err := f.File.Write(p)
	f.t.add(span{Name: "wal.write", Tenant: f.tenant, Record: f.record, Job: f.job, Bytes: n, Start: start, End: f.t.now()})
	return n, err
}

func (f *timedFile) Sync() error {
	start := f.t.now()
	err := f.File.Sync()
	f.t.add(span{Name: "wal.fsync", Tenant: f.tenant, Record: f.record, Job: f.job, Start: start, End: f.t.now()})
	return err
}

// recordOf reads the record type and, for job records, the job ID from a
// log line: {"s":N,"t":"<type>","c":N,"d":{"job":"<id>",...}}.
func recordOf(line []byte) (typ, job string) {
	typ = between(line, `"t":"`, `"`)
	if d := bytes.Index(line, []byte(`"d":{"job":"`)); d >= 0 {
		job = between(line[d:], `"job":"`, `"`)
	}
	return typ, job
}

func between(b []byte, open, close string) string {
	i := bytes.Index(b, []byte(open))
	if i < 0 {
		return ""
	}
	b = b[i+len(open):]
	j := bytes.Index(b, []byte(close))
	if j < 0 {
		return ""
	}
	return string(b[:j])
}

// window returns the spans that started inside [from, to].
func (t *tracer) window(from, to time.Time) []span {
	lo, hi := int64(from.Sub(t.t0)), int64(to.Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Start >= lo && s.Start <= hi {
			out = append(out, s)
		}
	}
	return out
}

// writeSpans writes the client spans and every recorded span as JSON
// lines.
func (t *tracer) writeSpans(path string, reqs []reqRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range reqs {
		_ = enc.Encode(map[string]any{"req": r.ID, "name": "client", "tenant": r.Tenant, "job": r.Job,
			"rt_ns": r.RT, "side_decode_ns": r.Decode, "side_encode_ns": r.Encode})
	}
	t.mu.Lock()
	for _, s := range t.spans {
		_ = enc.Encode(s)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
