package testset

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/easeml/ci/internal/data"
	"github.com/easeml/ci/internal/evaluator"
	"github.com/easeml/ci/internal/labeling"
)

// bitwiseUnrevealed is the reference the word-wise scans are checked
// against: one bit at a time over all examples, the first limit indices
// in want (every index when want is nil) that are not yet revealed.
func bitwiseUnrevealed(ts *Testset, want *evaluator.Bitmap, limit int) []int {
	var idx []int
	for i := 0; i < ts.Len() && len(idx) < limit; i++ {
		if (want == nil || want.Get(i)) && !ts.Revealed(i) {
			idx = append(idx, i)
		}
	}
	return idx
}

// tailLyingOracle answers the truth except for the last index of each
// batch, whose label it flips: the batch fails verification only after
// every earlier label checked out.
type tailLyingOracle struct{ y []int }

func (o tailLyingOracle) LabelBatch(idx []int) ([]int, error) {
	out := make([]int, len(idx))
	for k, i := range idx {
		out[k] = o.y[i]
	}
	out[len(out)-1] = 1 - out[len(out)-1]
	return out, nil
}

// TestWordwiseRevealScansMatchBitwise drives RevealFirst, RevealChunk and
// RevealedIndices over random revealed sets and masks, at sizes around
// and across a word boundary, and checks each against the bit-by-bit
// scan: the same indices, ascending, with exactly those marked revealed
// on success and nothing marked when the oracle's batch fails.
func TestWordwiseRevealScansMatchBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	densities := []float64{0, 0.05, 0.5, 0.95, 1}
	for _, n := range []int{63, 64, 65, 1000} {
		y := make([]int, n)
		for i := range y {
			y[i] = rng.Intn(2)
		}
		ds := &data.Dataset{Name: "labels", Y: y, Classes: 2}
		truth := labeling.NewTruthOracle(y)
		limits := []int{-1, 0, 1, 2, 63, 64, 65, n / 2, n - 1, n, n + 7}
		for trial := 0; trial < 25; trial++ {
			var revealed []int
			want := evaluator.NewBitmap(n)
			pRev, pWant := densities[rng.Intn(len(densities))], densities[rng.Intn(len(densities))]
			for i := 0; i < n; i++ {
				if rng.Float64() < pRev {
					revealed = append(revealed, i)
				}
				if rng.Float64() < pWant {
					want.Set(i)
				}
			}
			fresh := func() *Testset {
				ts, err := Restore(1, ds, revealed)
				if err != nil {
					t.Fatal(err)
				}
				return ts
			}
			if got := fresh().RevealedIndices(); !reflect.DeepEqual(got, append([]int{}, revealed...)) {
				t.Fatalf("n=%d trial %d: RevealedIndices = %v, want %v", n, trial, got, revealed)
			}
			for _, limit := range limits {
				// The scan itself, uncapped by the missing count the
				// public calls clamp limit to: it must stop at the last
				// example, not run into the tail word's spare bits.
				if limit > 0 {
					ts := fresh()
					for _, mask := range []*evaluator.Bitmap{nil, &want} {
						var words []uint64
						if mask != nil {
							words = mask.Words()
						}
						got, ref := ts.unrevealed(words, limit), bitwiseUnrevealed(ts, mask, limit)
						if len(got) != len(ref) || (len(ref) > 0 && !reflect.DeepEqual(got, ref)) {
							t.Fatalf("n=%d trial %d limit %d masked %v: unrevealed = %v, want %v", n, trial, limit, mask != nil, got, ref)
						}
					}
				}
				for _, chunk := range []bool{false, true} {
					name := fmt.Sprintf("n=%d trial %d limit %d chunk %v", n, trial, limit, chunk)
					reveal := func(ts *Testset, o labeling.BatchOracle) ([]int, error) {
						if chunk {
							return ts.RevealChunk(want, limit, o)
						}
						return ts.RevealFirst(limit, o)
					}
					ref := fresh()
					var mask *evaluator.Bitmap
					refLimit := limit
					if chunk {
						mask = &want
						if refLimit <= 0 {
							refLimit = n
						}
					}
					wantIdx := bitwiseUnrevealed(ref, mask, refLimit)

					ts := fresh()
					got, err := reveal(ts, truth)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !reflect.DeepEqual(got, wantIdx) {
						t.Fatalf("%s: revealed %v, want %v", name, got, wantIdx)
					}
					for k, i := range got {
						if k > 0 && got[k-1] >= i {
							t.Fatalf("%s: indices not ascending: %v", name, got)
						}
						if !ts.Revealed(i) {
							t.Fatalf("%s: index %d returned but not marked", name, i)
						}
					}
					if ts.RevealedCount() != len(revealed)+len(got) || len(ts.RevealedIndices()) != ts.RevealedCount() {
						t.Fatalf("%s: revealed count %d, want %d", name, ts.RevealedCount(), len(revealed)+len(got))
					}

					// A batch that fails verification on its last label
					// marks nothing.
					if len(wantIdx) == 0 {
						continue
					}
					ts = fresh()
					if _, err := reveal(ts, tailLyingOracle{y}); err == nil {
						t.Fatalf("%s: a lying oracle was accepted", name)
					}
					if ts.RevealedCount() != len(revealed) || !reflect.DeepEqual(ts.RevealedIndices(), append([]int{}, revealed...)) {
						t.Fatalf("%s: a failed batch changed the revealed set", name)
					}
				}
			}
		}
	}
}
