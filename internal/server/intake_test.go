package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/easeml/ci/internal/notify"
	"github.com/easeml/ci/internal/script"
	"github.com/easeml/ci/internal/wal"
)

// intakeSeeds are the corpus of FuzzCommitIntake and the bodies of the
// intake table tests: the canonical shapes the scanner takes, and every
// departure from them that must reach encoding/json.
var intakeSeeds = []string{
	`{"model":"m","author":"a","message":"fix","predictions":[0,1,2,3]}`,
	`{"model":"m","webhook":"http://127.0.0.1:9/hook","predictions":[3,2]}`,
	` { "model" : "m" ,	"predictions" : [ 1 , 2 ]
}
`,
	`{"Model":"m","PREDICTIONS":[1]}`,
	`{"model":"a","model":"b","predictions":[1]}`,
	`{"model":"m","predictions":[1],"predictions":[2,3]}`,
	`{"model":null,"predictions":null}`,
	`{"model":"m","predictions":null}`,
	`{"model":"m","predictions":[]}`,
	`{"model":"é","predictions":[1]}`,
	`{"model":"a\"b\\cé","predictions":[1]}`,
	"{\"model\":\"tab\there\",\"predictions\":[1]}",
	"{\"model\":\"\xff\",\"predictions\":[1]}",
	"{\"model\":\" \",\"predictions\":[1]}",
	`{"model":"m","predictions":[1e2]}`,
	`{"model":"m","predictions":[1E2]}`,
	`{"model":"m","predictions":[1.0]}`,
	`{"model":"m","predictions":[-0]}`,
	`{"model":"m","predictions":[01]}`,
	`{"model":"m","predictions":[-]}`,
	`{"model":"m","predictions":[+1]}`,
	`{"model":"m","predictions":[123456789012345678,-123456789012345678]}`,
	`{"model":"m","predictions":[1234567890123456789]}`,
	`{"model":"m","predictions":[99999999999999999999]}`,
	`{"model":"m","predictions":[1,]}`,
	`{"model":"m","predictions":[1 2]}`,
	`{"model":"m","predictions":["1"]}`,
	`{"model":"m","predictions":"1"}`,
	`{"model":1,"predictions":[1]}`,
	`{"model":"m","extra":{"a":[1,{"b":2}],"c":"]"},"predictions":[1]}`,
	`{"model":"m","predictions":[1]} trailing garbage`,
	`{"model":"m","predictions":[1]}{"model":"n"}`,
	`{"model":"m",}`,
	`{"model":"m","predictions":[1,2`,
	`{"model":"unterminated`,
	`{"model":"m"`,
	`{"model" "m"}`,
	`{}`,
	`null`,
	`[1,2]`,
	`{nope`,
	``,
	`{"author":"a","predictions":[1]}`,
	`{"labels":[0,1,2],"active_predictions":[0,1,1]}`,
	`{"labels":[],"active_predictions":null}`,
	`{"labels":[0],"active_preds":[1],"generation":2}`,
	`{"labels":[0],"active_preds":[1],"generation":2} x`,
	`{"labels":[0],"active_preds":[1],"generation":-0}`,
	`{"labels":[0],"active_preds":[1],"generation":02}`,
	`{"job":"job-1","seq":1,"req":{"model":"m","author":"","message":"","predictions":[0,1]}}`,
	`{"job":"job-2","seq":2,"req":{"model":"m","author":"","message":"","predictions":null,"webhook":"http://h/x"}}`,
	`{"job":"job-3","seq":3,"req":{"model":"m\u003c","author":"","message":"","predictions":[]}}`,
}

// FuzzCommitIntake is the differential check of the intake scanner
// against encoding/json: for every body and every scanned type, the
// server's decode returns the same error and the same value as the
// decoder it replaced (json.Decoder for request bodies, json.Unmarshal
// for WAL records), and whenever the scanner alone accepts a body,
// encoding/json accepts it too with a reflect.DeepEqual value.
func FuzzCommitIntake(f *testing.F) {
	for _, s := range intakeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode[CommitRequest](t, body, false)
		checkDecode[AsyncCommitRequest](t, body, false)
		checkDecode[RotateRequest](t, body, false)
		checkDecode[recSubmit](t, body, true)
		checkDecode[recRotate](t, body, true)
	})
}

// checkDecode holds the intake decode of body into a T to encoding/json:
// json.Unmarshal for a WAL record (whole), json.Decoder for a request.
func checkDecode[T any](t *testing.T, body []byte, whole bool) {
	t.Helper()
	var scanned, got, want T
	var err, werr error
	if whole {
		err, werr = decodeRecord(body, &got), json.Unmarshal(body, &want)
	} else {
		err, werr = decodeRequest(body, &got), json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	}
	if scan(body, &scanned, whole) && (werr != nil || !reflect.DeepEqual(scanned, want)) {
		t.Fatalf("%T: scanner decoded %q as %#v, encoding/json as %#v (%v)", scanned, body, scanned, want, werr)
	}
	if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: %q: decoded %#v (%v), encoding/json %#v (%v)", got, body, got, err, want, werr)
	}
}

// TestIntakeScannerTakesCanonicalBodies pins which seeds the fast path
// decodes itself, so a scanner that silently fell back on everything
// (and so passed the differential checks trivially) is caught.
func TestIntakeScannerTakesCanonicalBodies(t *testing.T) {
	for _, tc := range []struct {
		body string
		v    any
		want bool
	}{
		{`{"model":"m","author":"a","message":"fix","predictions":[0,1,2,3]}`, new(CommitRequest), true},
		{`{"model":"m","webhook":"http://h/x","predictions":[3,2]}`, new(AsyncCommitRequest), true},
		{`{"model":"m","webhook":"http://h/x","predictions":[3,2]}`, new(CommitRequest), false}, // webhook is unknown to the sync body
		{" { \"model\" : \"m\" ,\t\"predictions\" : [ 1 , 2 ]\r\n}\n", new(CommitRequest), true},
		{`{"model":"m","predictions":[1]} trailing garbage`, new(CommitRequest), true},
		{`{"model":"m","predictions":[-0]}`, new(CommitRequest), true},
		{`{"model":"m","predictions":[]}`, new(CommitRequest), true},
		{`{"model":"m","predictions":null}`, new(CommitRequest), false},
		{`{"Model":"m","PREDICTIONS":[1]}`, new(CommitRequest), false},
		{`{"model":"a","model":"b","predictions":[1]}`, new(CommitRequest), false},
		{`{"model":"m","predictions":[01]}`, new(CommitRequest), false},
		{`{"model":"m","predictions":[1234567890123456789]}`, new(CommitRequest), false},
		{`{"labels":[0,1,2],"active_predictions":[0,1,1]}`, new(RotateRequest), true},
		{`{"labels":[0],"active_preds":[1],"generation":2}`, new(recRotate), true},
		{`{"labels":[0],"active_preds":[1],"generation":2}`, new(RotateRequest), false},
		{`{"job":"job-1","seq":1,"req":{"model":"m","author":"","message":"","predictions":[0,1]}}`, new(recSubmit), true},
		{`{"job":"job-2","seq":2,"req":{"model":"m","predictions":null}}`, new(recSubmit), false},
		{`{"job":"job-3","seq":3,"req":{"model":"m\u003c","predictions":[]}}`, new(recSubmit), false},
		{`{"job":"j","seq":1,"req":{"model":"m<","webhook":"http://h/x","predictions":[]}}`, new(recSubmit), true},
		{`{"model":"m"}`, new(CommitResponse), false}, // no scanner for the type
	} {
		if got := scan([]byte(tc.body), tc.v, false); got != tc.want {
			t.Errorf("scan(%q, %T) = %v, want %v", tc.body, tc.v, got, tc.want)
		}
	}
	var r recRotate
	if scan([]byte(`{"labels":[0],"active_preds":[1],"generation":2} x`), &r, true) {
		t.Error("a record with trailing bytes must go to json.Unmarshal")
	}
	var c CommitRequest
	if !scan([]byte(`{"model":"m","predictions":[]}`), &c, false) || c.Predictions == nil {
		t.Errorf("[] must decode to a non-nil empty slice, got %#v", c.Predictions)
	}
}

// parentIntake is the decode the commit, async-commit and rotation
// handlers ran before the scanner: a streaming json.Decoder over the
// unbounded body, then the model check. It reports whether the body was
// accepted.
func parentIntake(w http.ResponseWriter, r *http.Request, v any, model *string) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return false
	}
	if model != nil && *model == "" {
		writeError(w, http.StatusBadRequest, "model name required")
		return false
	}
	return true
}

// TestIntakeRejectionsMatchParent: every body the intake rejects is
// rejected through the real handlers with the status and body bytes the
// streaming-decoder handlers answered.
func TestIntakeRejectionsMatchParent(t *testing.T) {
	srv, _ := newTestServer(t, script.AdaptivityFull)
	endpoints := []struct {
		path  string
		fresh func() (any, *string)
	}{
		{"/api/v1/commit", func() (any, *string) { var v CommitRequest; return &v, &v.Model }},
		{"/api/v1/commit/async", func() (any, *string) { var v AsyncCommitRequest; return &v, &v.Model }},
		{"/api/v1/testset", func() (any, *string) { var v RotateRequest; return &v, nil }},
	}
	rejected := 0
	for _, ep := range endpoints {
		for _, body := range intakeSeeds {
			want := httptest.NewRecorder()
			v, model := ep.fresh()
			if parentIntake(want, httptest.NewRequest(http.MethodPost, ep.path, strings.NewReader(body)), v, model) {
				continue
			}
			rejected++
			got := httptest.NewRecorder()
			srv.ServeHTTP(got, httptest.NewRequest(http.MethodPost, ep.path, strings.NewReader(body)))
			if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("POST %s %q = %d %s, parent answered %d %s", ep.path, body, got.Code, got.Body.Bytes(), want.Code, want.Body.Bytes())
			}
		}
	}
	if rejected < 40 {
		t.Fatalf("only %d rejected bodies exercised", rejected)
	}
	// Pin a few texts outright, independent of the reference above.
	for body, want := range map[string]string{
		`{"model":"m"`:                      `{"error":"malformed JSON: unexpected EOF"}` + "\n",
		``:                                  `{"error":"malformed JSON: EOF"}` + "\n",
		`{}`:                                `{"error":"model name required"}` + "\n",
		`{"model":"m","predictions":[1.0]}`: `{"error":"malformed JSON: json: cannot unmarshal number 1.0 into Go struct field CommitRequest.predictions of type int"}` + "\n",
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/commit", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest || rec.Body.String() != want {
			t.Errorf("POST /api/v1/commit %q = %d %s, want 400 %s", body, rec.Code, rec.Body.String(), want)
		}
	}
}

// failingBody yields its bytes, then fails the read with err.
type failingBody struct {
	r   io.Reader
	err error
}

func (b *failingBody) Read(p []byte) (int, error) {
	if n, _ := b.r.Read(p); n > 0 {
		return n, nil
	}
	return 0, b.err
}

// TestIntakeReadErrorMatchesStreamingDecoder: a body whose read fails
// mid-way is judged as the streaming decoder judged it — a value that
// completed before the failure is accepted, anything else reports the
// read error.
func TestIntakeReadErrorMatchesStreamingDecoder(t *testing.T) {
	srv, labels := newTestServer(t, script.AdaptivityFull)
	preds, _ := json.Marshal(goodPredictions(t, labels, 0.9, 5))
	boom := errors.New("connection reset")
	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"model":"m","predictions":` + string(preds) + `}  `, http.StatusOK},
		{`{"model":"m","predictions":[1,2`, http.StatusBadRequest},
	} {
		want := httptest.NewRecorder()
		var v CommitRequest
		parentIntake(want, httptest.NewRequest(http.MethodPost, "/api/v1/commit", &failingBody{strings.NewReader(tc.body), boom}), &v, &v.Model)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/commit", &failingBody{strings.NewReader(tc.body), boom}))
		if rec.Code != tc.code {
			t.Errorf("%.40q: status %d, want %d: %s", tc.body, rec.Code, tc.code, rec.Body.String())
		}
		if tc.code == http.StatusBadRequest && rec.Body.String() != want.Body.String() {
			t.Errorf("%.40q: %s, parent %s", tc.body, rec.Body.String(), want.Body.String())
		}
	}
}

// zeros streams n bytes of "0,0,0,…" without holding them.
type zeros struct{ n int }

func (z *zeros) Read(p []byte) (int, error) {
	if z.n == 0 {
		return 0, io.EOF
	}
	k := min(len(p), z.n)
	for i := range p[:k] {
		p[i] = "0,"[i%2]
	}
	z.n -= k
	return k, nil
}

// TestIntakeBodyCap: an oversize body answers the batch-plan endpoint's
// 400 text on all three intake endpoints, and an oversize commit submits
// no job and writes no WAL record.
func TestIntakeBodyCap(t *testing.T) {
	g, _ := durableGenesis(t, 3, testSize)
	dir := t.TempDir()
	srv, err := NewDurable(g, dir, Options{Webhooks: notify.NewOutbox()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	log := func() []byte {
		b, err := os.ReadFile(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	before := log()
	const want = `{"error":"malformed JSON: http: request body too large"}` + "\n"
	for _, path := range []string{"/api/v1/commit", "/api/v1/commit/async", "/api/v1/testset"} {
		body := io.MultiReader(strings.NewReader(`{"model":"m","predictions":[`), &zeros{n: maxIntakeBody}, strings.NewReader(`0]}`))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		if rec.Code != http.StatusBadRequest || rec.Body.String() != want {
			t.Errorf("POST %s oversize = %d %s", path, rec.Code, rec.Body.String())
		}
	}
	if st := srv.jobs.Stats(); st.Submitted != 0 {
		t.Errorf("oversize commits submitted %d jobs", st.Submitted)
	}
	if after := log(); !bytes.Equal(after, before) {
		t.Errorf("oversize commits wrote %d WAL bytes", len(after)-len(before))
	}
}

// intakeStrings are the strings the record encoder must quote exactly as
// json.Marshal does: the verbatim fast path and every escape it hands
// back to json.Marshal.
var intakeStrings = []string{
	"", "model-v2", "a b ~!@#$%^*()_+", "<script>", "a&b", "x>y", `q"uote`, `back\slash`,
	"tab\t", "nl\n", "\x00\x1f\x7f", "é", "  ", "\xff\xfe", "ok\xc3", "日本",
}

// TestRecordEncoderMatchesMarshal: hand-encoded submit and rotate
// records are byte-identical to json.Marshal over random requests. The
// quick-generated records fill every field, so a field added to a record
// type without teaching the encoder fails here.
func TestRecordEncoderMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pick := func() string { return intakeStrings[rng.Intn(len(intakeStrings))] }
	ints := func() []int {
		switch rng.Intn(5) {
		case 0:
			return nil
		case 1:
			return []int{}
		}
		v := make([]int, rng.Intn(50))
		for i := range v {
			v[i] = rng.Intn(2000) - 1000
		}
		if len(v) > 0 && rng.Intn(2) == 0 {
			v[0] = -1 << 63
		}
		return v
	}
	check := func(payload any) {
		t.Helper()
		got := appendRecord(payload)
		want, _ := json.Marshal(payload)
		if !bytes.Equal(got, want) {
			t.Fatalf("%T record:\n got  %s\n want %s", payload, got, want)
		}
	}
	for i := 0; i < 2000; i++ {
		var s recSubmit
		var r recRotate
		if i%2 == 0 {
			sv, ok := quick.Value(reflect.TypeOf(s), rng)
			rv, ok2 := quick.Value(reflect.TypeOf(r), rng)
			if !ok || !ok2 {
				t.Fatal("quick.Value failed")
			}
			s, r = sv.Interface().(recSubmit), rv.Interface().(recRotate)
		} else {
			s = recSubmit{Job: pick(), Seq: rng.Int(), Req: AsyncCommitRequest{
				CommitRequest: CommitRequest{Model: pick(), Author: pick(), Message: pick(), Predictions: ints()},
				Webhook:       pick(),
			}}
			r = recRotate{Labels: ints(), ActivePreds: ints(), Generation: rng.Intn(100)}
		}
		check(s)
		check(r)
	}
	// Every other record type is left to wal.Log.Append's json.Marshal.
	if b := appendRecord(recCancel{Job: "job-1"}); b != nil {
		t.Errorf("cancel record encoded directly: %s", b)
	}
}

// TestDurableReplayFallsBackForEscapedRecords: submit and rotate records
// whose strings json.Marshal escaped are replayed through
// encoding/json, and a restart reproduces the history byte for byte.
func TestDurableReplayFallsBackForEscapedRecords(t *testing.T) {
	g, labels := durableGenesis(t, 3, testSize)
	dir := t.TempDir()
	srv, err := NewDurable(g, dir, Options{Webhooks: notify.NewOutbox()})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"plain", "<esc&ped>", "ünïcode"} {
		rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{
			Model: name, Author: " ", Predictions: goodPredictions(t, labels, 0.9, int64(10+i)),
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("commit %q = %d: %s", name, rec.Code, rec.Body.String())
		}
	}
	rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/testset", RotateRequest{Labels: labels, ActivePredictions: g.ModelPredictions})
	if rec.Code != http.StatusOK {
		t.Fatalf("rotate = %d: %s", rec.Code, rec.Body.String())
	}
	history := getBody(t, srv, "/api/v1/history")
	// Abandon without Close: the restart replays the log, not a snapshot.
	restarted, err := NewDurable(g, dir, Options{Webhooks: notify.NewOutbox()})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer restarted.Close()
	if got := getBody(t, restarted, "/api/v1/history"); !bytes.Equal(got, history) {
		t.Errorf("history changed across restart:\n%s\n%s", got, history)
	}
}

// TestRotateIntakeValidation: the rotation endpoint builds its testset
// with the same helper replay uses, so its rejections keep their status
// codes and texts.
func TestRotateIntakeValidation(t *testing.T) {
	srv, labels := newTestServer(t, script.AdaptivityFull)
	for _, tc := range []struct {
		body RotateRequest
		code int
		want string
	}{
		{RotateRequest{Labels: []int{0, 1}, ActivePredictions: []int{0}}, http.StatusBadRequest,
			`{"error":"labels and active_predictions must be non-empty and equal length"}`},
		{RotateRequest{Labels: []int{0, 7, 1}, ActivePredictions: []int{0, 1, 1}}, http.StatusBadRequest,
			`{"error":"label 7 out of range at 1"}`},
		{RotateRequest{Labels: []int{0, -1}, ActivePredictions: []int{0, 1}}, http.StatusBadRequest,
			`{"error":"label -1 out of range at 1"}`},
		{RotateRequest{Labels: labels[:3], ActivePredictions: labels[:3]}, http.StatusUnprocessableEntity,
			`{"error":"engine: new testset has 3 examples but the plan requires`},
	} {
		rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/testset", tc.body)
		if rec.Code != tc.code || !strings.HasPrefix(rec.Body.String(), tc.want) {
			t.Errorf("rotate %v = %d %s, want %d %s", tc.body.Labels, rec.Code, rec.Body.String(), tc.code, tc.want)
		}
	}
	rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/testset", RotateRequest{Labels: labels, ActivePredictions: labels})
	if rec.Code != http.StatusOK {
		t.Fatalf("rotate = %d: %s", rec.Code, rec.Body.String())
	}
	srv.mu.Lock()
	name := srv.eng.Testsets().Current().Data.Name
	srv.mu.Unlock()
	if name != "rotated" {
		t.Errorf("rotated testset is named %q", name)
	}
}

// TestDurableRotateAppendFailurePoisons: a rotation whose WAL record
// cannot be written answers the structured 503 and poisons the server.
func TestDurableRotateAppendFailurePoisons(t *testing.T) {
	g, labels := durableGenesis(t, 3, testSize)
	var failing atomic.Bool
	srv, err := NewDurable(g, t.TempDir(), Options{
		Webhooks: notify.NewOutbox(),
		WALWriteHook: func([]byte) error {
			if failing.Load() {
				return errors.New("disk full")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	failing.Store(true)
	rec, body := doJSON(t, srv, http.MethodPost, "/api/v1/testset", RotateRequest{Labels: labels, ActivePredictions: labels})
	if rec.Code != http.StatusServiceUnavailable || string(body["degraded"]) != "true" {
		t.Fatalf("rotate with a failing WAL = %d %s", rec.Code, rec.Body.String())
	}
	failing.Store(false)
	rec, _ = doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{Model: "m", Predictions: labels})
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("commit on a poisoned server = %d %s", rec.Code, rec.Body.String())
	}
}

// TestDurableReplayRejectsUndecodableRecords: a submit or rotate record
// whose payload encoding/json cannot decode fails recovery with the
// record named, as before the scanner.
func TestDurableReplayRejectsUndecodableRecords(t *testing.T) {
	g, _ := durableGenesis(t, 3, testSize)
	for typ, payload := range map[string]string{
		recTypeSubmit: `{"job":7,"seq":1,"req":{}}`,
		recTypeRotate: `{"labels":"0","active_preds":[],"generation":1}`,
	} {
		dir := t.TempDir()
		srv, err := NewDurable(g, dir, Options{Webhooks: notify.NewOutbox()})
		if err != nil {
			t.Fatal(err)
		}
		srv.Close()
		l, _, _, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := l.AppendEncoded(typ, []byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var want error
		if typ == recTypeSubmit {
			want = json.Unmarshal([]byte(payload), new(recSubmit))
		} else {
			want = json.Unmarshal([]byte(payload), new(recRotate))
		}
		_, err = NewDurable(g, dir, Options{Webhooks: notify.NewOutbox()})
		if err == nil || !strings.HasSuffix(err.Error(), fmt.Sprintf("record %d (%s): %v", seq, typ, want)) {
			t.Errorf("%s: recovery error = %v, want the record and %v", typ, err, want)
		}
	}
}
