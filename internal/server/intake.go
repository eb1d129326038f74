package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// Intake: the commit, async-commit and rotation bodies carry one
// prediction (or label) per testset example, so at practical testset
// sizes they are tens of thousands of integers, and decoding them by
// reflection would dominate the commit path. This file decodes them — and
// the submit and rotate WAL records that carry the same arrays — with a
// small scanner that accepts only the canonical shape and hands anything
// else to encoding/json, which stays the reference: every body decodes to
// the value, or fails with the error, that encoding/json gives it.

// maxIntakeBody caps the commit, async-commit and rotation bodies. A
// rotation of 10⁶ examples with two 10⁶-integer arrays of class indices
// is under 10 MiB.
const maxIntakeBody = 32 << 20

// maxPooledBody is the largest read buffer returned to bodyPool, so one
// huge body is not kept alive by the pool.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeIntake reads a commit or rotation body, capped at maxIntakeBody,
// and decodes it into v. model, when non-nil, is v's model name, which
// must not be empty. On failure it answers 400 and returns false.
func decodeIntake(w http.ResponseWriter, r *http.Request, v any, model *string) bool {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	if n := r.ContentLength; n > 0 && n <= maxIntakeBody {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxIntakeBody))
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		err = decodeRequest(buf.Bytes(), v)
	case !errors.As(err, &tooLarge):
		// A streaming decoder returns a value completed before the read
		// failed and the read error otherwise; replay the bytes read so
		// far followed by the error through one.
		err = json.NewDecoder(io.MultiReader(bytes.NewReader(buf.Bytes()), errReader{err})).Decode(v)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return false
	}
	if model != nil && *model == "" {
		writeError(w, http.StatusBadRequest, "model name required")
		return false
	}
	return true
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// decodeRequest decodes the first JSON value of b into v, ignoring any
// bytes after it, exactly as json.Decoder.Decode does.
func decodeRequest(b []byte, v any) error {
	if scan(b, v, false) {
		return nil
	}
	return json.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// decodeRecord decodes a WAL record payload into v exactly as
// json.Unmarshal does.
func decodeRecord(b []byte, v any) error {
	if scan(b, v, true) {
		return nil
	}
	return json.Unmarshal(b, v)
}

// scan decodes b into v when b has the canonical shape: one object whose
// keys are v's exact lowercase field names, each at most once, and whose
// values are escape-free printable-ASCII strings, integers of at most
// maxDigits digits without fraction or exponent, and arrays of such
// integers. whole additionally requires that only white space follows the
// object. Anything else — unknown or case-folded keys, duplicate keys,
// null, escapes, non-ASCII, leading zeros, or a type v has no scanner
// for — reports false and leaves v untouched, for encoding/json to decode.
func scan(b []byte, v any, whole bool) bool {
	s := &scanner{b: b}
	var ok bool
	switch v := v.(type) {
	case *CommitRequest:
		var c CommitRequest
		if ok = s.commit(&c, nil) && s.end(whole); ok {
			*v = c
		}
	case *AsyncCommitRequest:
		var c AsyncCommitRequest
		if ok = s.commit(&c.CommitRequest, &c.Webhook) && s.end(whole); ok {
			*v = c
		}
	case *RotateRequest:
		var c RotateRequest
		if ok = s.rotate(&c.Labels, &c.ActivePredictions, "active_predictions", nil) && s.end(whole); ok {
			*v = c
		}
	case *recSubmit:
		var c recSubmit
		if ok = s.submit(&c) && s.end(whole); ok {
			*v = c
		}
	case *recRotate:
		var c recRotate
		if ok = s.rotate(&c.Labels, &c.ActivePreds, "active_preds", &c.Generation) && s.end(whole); ok {
			*v = c
		}
	}
	return ok
}

// maxDigits keeps every scanned integer inside int without overflow
// checks (18 digits on 64-bit platforms, 9 on 32-bit ones); longer
// numbers go to encoding/json, which reports the overflow.
const maxDigits = strconv.IntSize/64*9 + 9

// scanner walks one canonical body; each method reports false on the
// first byte outside the canonical shape.
type scanner struct {
	b []byte
	i int
}

// skipSpace returns the index of the first non-white-space byte of b at
// or after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// number reads the integer at b[i:]: an optional minus sign and 1 to
// maxDigits digits without a leading zero. It returns the value and the
// index after the last digit, or end 0 when b[i:] holds no such integer.
func number(b []byte, i int) (v, end int) {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	for end = j; end < len(b) && b[end]-'0' <= 9; end++ {
		v = v*10 + int(b[end]-'0')
	}
	if n := end - j; n == 0 || n > maxDigits || n > 1 && b[j] == '0' {
		return 0, 0
	}
	if j > i {
		v = -v
	}
	return v, end
}

// consume skips white space and then c.
func (s *scanner) consume(c byte) bool {
	s.i = skipSpace(s.b, s.i)
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *scanner) end(whole bool) bool {
	s.i = skipSpace(s.b, s.i)
	return !whole || s.i == len(s.b)
}

// raw reads a string literal without escapes whose bytes are all
// printable ASCII, returning its contents in place.
func (s *scanner) raw() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			out := s.b[s.i:j]
			s.i = j + 1
			return out, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (s *scanner) str(dst *string) bool {
	b, ok := s.raw()
	*dst = string(b)
	return ok
}

func (s *scanner) num(dst *int) bool {
	v, end := number(s.b, skipSpace(s.b, s.i))
	if end > 0 {
		s.i, *dst = end, v
	}
	return end > 0
}

// ints reads an array of integers into a slice allocated once at its
// exact length, counted by a first pass over the commas. An empty array
// is a non-nil empty slice, as encoding/json decodes it.
func (s *scanner) ints(dst *[]int) bool {
	if !s.consume('[') {
		return false
	}
	b, i := s.b, s.i
	n := bytes.IndexByte(b[i:], ']')
	if n < 0 {
		return false
	}
	out := make([]int, 0, bytes.Count(b[i:i+n], []byte{','})+1)
	// Neither white space nor digits include ']', so the one found above
	// bounds every index below.
	if i = skipSpace(b, i); b[i] != ']' {
		for {
			v, end := number(b, i)
			if end == 0 {
				return false
			}
			out = append(out, v)
			if i = skipSpace(b, end); b[i] == ']' {
				break
			}
			if b[i] != ',' {
				return false
			}
			i = skipSpace(b, i+1)
		}
	}
	s.i = i + 1
	*dst = out
	return true
}

// object reads '{' members '}', handing each key to member, which reads
// the value and returns its field's bit (0 for an unknown key or a value
// that did not scan). A repeated bit is a duplicate key.
func (s *scanner) object(member func(key []byte) uint) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	var seen uint
	for {
		k, ok := s.raw()
		if !ok || !s.consume(':') {
			return false
		}
		bit := member(k)
		if bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if s.consume('}') {
			return true
		}
		if !s.consume(',') {
			return false
		}
	}
}

// field maps a scanned value to its member bit: bit when ok, else 0.
func field(bit uint, ok bool) uint {
	if ok {
		return bit
	}
	return 0
}

// commit reads a commit request; webhook is nil for the synchronous
// body, where "webhook" is an unknown key.
func (s *scanner) commit(c *CommitRequest, webhook *string) bool {
	return s.object(func(k []byte) uint {
		switch string(k) {
		case "model":
			return field(1, s.str(&c.Model))
		case "author":
			return field(2, s.str(&c.Author))
		case "message":
			return field(4, s.str(&c.Message))
		case "predictions":
			return field(8, s.ints(&c.Predictions))
		case "webhook":
			if webhook != nil {
				return field(16, s.str(webhook))
			}
		}
		return 0
	})
}

// rotate reads a rotation body (preds named active_predictions) or a
// rotate record (active_preds, plus generation).
func (s *scanner) rotate(labels, preds *[]int, predsKey string, generation *int) bool {
	return s.object(func(k []byte) uint {
		switch string(k) {
		case "labels":
			return field(1, s.ints(labels))
		case predsKey:
			return field(2, s.ints(preds))
		case "generation":
			if generation != nil {
				return field(4, s.num(generation))
			}
		}
		return 0
	})
}

func (s *scanner) submit(r *recSubmit) bool {
	return s.object(func(k []byte) uint {
		switch string(k) {
		case "job":
			return field(1, s.str(&r.Job))
		case "seq":
			return field(2, s.num(&r.Seq))
		case "req":
			return field(4, s.commit(&r.Req.CommitRequest, &r.Req.Webhook))
		}
		return 0
	})
}

// appendRecord encodes the WAL payloads that carry prediction arrays —
// submit and rotate records — directly, producing json.Marshal's bytes.
// It returns nil for every other payload, which wal.Log.Append encodes
// with json.Marshal.
func appendRecord(payload any) []byte {
	switch p := payload.(type) {
	case recSubmit:
		return appendSubmit(make([]byte, 0, 2*len(p.Req.Predictions)+256), p)
	case recRotate:
		return appendRotate(make([]byte, 0, 2*(len(p.Labels)+len(p.ActivePreds))+64), p)
	}
	return nil
}

func appendSubmit(b []byte, r recSubmit) []byte {
	b = append(b, `{"job":`...)
	b = appendString(b, r.Job)
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, int64(r.Seq), 10)
	b = append(b, `,"req":{"model":`...)
	b = appendString(b, r.Req.Model)
	b = append(b, `,"author":`...)
	b = appendString(b, r.Req.Author)
	b = append(b, `,"message":`...)
	b = appendString(b, r.Req.Message)
	b = append(b, `,"predictions":`...)
	b = appendInts(b, r.Req.Predictions)
	if r.Req.Webhook != "" {
		b = append(b, `,"webhook":`...)
		b = appendString(b, r.Req.Webhook)
	}
	return append(b, "}}"...)
}

func appendRotate(b []byte, r recRotate) []byte {
	b = append(b, `{"labels":`...)
	b = appendInts(b, r.Labels)
	b = append(b, `,"active_preds":`...)
	b = appendInts(b, r.ActivePreds)
	b = append(b, `,"generation":`...)
	b = strconv.AppendInt(b, int64(r.Generation), 10)
	return append(b, '}')
}

func appendInts(b []byte, v []int) []byte {
	if v == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// appendString quotes s as json.Marshal does. Printable ASCII without the
// characters json.Marshal escapes (", \ and the HTML-sensitive <, >, &)
// is copied verbatim; any other string is json.Marshal's, which also
// covers U+2028, U+2029 and invalid UTF-8.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
