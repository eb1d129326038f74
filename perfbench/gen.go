package main

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
)

// Every input the server sees derives from the workload seed through
// stream: a labelled sub-seed per purpose (tenant, testset generation,
// commit index), so a client and the verdict replay regenerate the same
// inputs without storing them.
func stream(seed int64, parts ...any) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(strconv.FormatInt(seed, 10)))
	for _, p := range parts {
		_, _ = h.Write([]byte{0})
		switch v := p.(type) {
		case string:
			_, _ = h.Write([]byte(v))
		case int:
			_, _ = h.Write([]byte(strconv.Itoa(v)))
		}
	}
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// genLabels draws a testset's ground truth: uniform over the classes.
func genLabels(r *rand.Rand, n, classes int) []int {
	y := make([]int, n)
	for i := range y {
		y[i] = r.Intn(classes)
	}
	return y
}

// genModel simulates a model of the given accuracy on labels y: each
// prediction is correct with probability acc, otherwise a uniformly drawn
// wrong class.
func genModel(r *rand.Rand, y []int, classes int, acc float64) []int {
	p := make([]int, len(y))
	for i, label := range y {
		if r.Float64() < acc {
			p[i] = label
		} else {
			p[i] = wrongClass(r, label, classes)
		}
	}
	return p
}

func wrongClass(r *rand.Rand, label, classes int) int {
	c := r.Intn(classes - 1)
	if c >= label {
		c++
	}
	return c
}

// perturbation is how one tenant's developers perturb the baseline: each
// candidate disagrees with the baseline on a fraction d of the examples
// and moves accuracy by delta, both drawn per commit.
type perturbation struct {
	condition string
	// dLo/dHi bound the uniform disagreement draw; deltaSD is the spread
	// of the zero-mean normal accuracy change (clamped to |delta| <= d).
	dLo, dHi, deltaSD float64
}

// perturb derives a candidate from the baseline: round((d+delta)/2*n)
// wrong baseline predictions are fixed and round((d-delta)/2*n) right
// ones are broken, so the candidate disagrees with the baseline on about
// d*n examples and its accuracy differs by about delta.
func (sc perturbation) perturb(r *rand.Rand, y, base []int, classes int) []int {
	n := len(y)
	d := sc.dLo + (sc.dHi-sc.dLo)*r.Float64()
	delta := sc.deltaSD * r.NormFloat64()
	delta = math.Max(-d, math.Min(d, delta))
	var right, wrong []int
	for i := range y {
		if base[i] == y[i] {
			right = append(right, i)
		} else {
			wrong = append(wrong, i)
		}
	}
	fix := min(int(math.Round((d+delta)/2*float64(n))), len(wrong))
	brk := min(int(math.Round((d-delta)/2*float64(n))), len(right))
	cand := append([]int(nil), base...)
	for _, i := range pick(r, wrong, fix) {
		cand[i] = y[i]
	}
	for _, i := range pick(r, right, brk) {
		cand[i] = wrongClass(r, y[i], classes)
	}
	return cand
}

// pick chooses k distinct elements of xs (which it reorders).
func pick(r *rand.Rand, xs []int, k int) []int {
	for i := 0; i < k; i++ {
		j := i + r.Intn(len(xs)-i)
		xs[i], xs[j] = xs[j], xs[i]
	}
	return xs[:k]
}

// appendInts appends xs as a JSON array.
func appendInts(b []byte, xs []int) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}
