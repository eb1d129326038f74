// Package data provides the dataset substrate for the reproduction: seeded
// synthetic generators that stand in for the paper's evaluation assets
// (infinite MNIST for Figure 3/4, the SemEval-2019 Task 3 emotion corpus
// for Figures 5/6), plus deterministic splitting and sampling utilities.
//
// All generators are fully deterministic given their seed, so every
// experiment in this repository is reproducible bit-for-bit.
package data

import (
	"fmt"
	"math/rand"
)

// Dataset is an in-memory supervised dataset with dense feature vectors.
//
// A Dataset whose X is nil is label-only: it carries the ground truth of
// a testset whose predictions arrive as positional vectors (the CI
// server's testsets, where a commit is one prediction per example), and
// stores one int per example instead of a heap-allocated feature vector
// each. Positional consumers (Len, Validate, the engine, prediction-
// vector models) treat it like any other dataset; feature consumers (the
// learners, element-wise prediction) refuse it with an error, and Split
// and Subset keep X nil in what they return.
type Dataset struct {
	// Name identifies the dataset in reports.
	Name string
	// X holds one feature vector per example, or is nil for a label-only
	// dataset.
	X [][]float64
	// Y holds the class label (0..Classes-1) per example.
	Y []int
	// Classes is the number of distinct labels.
	Classes int
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Y) }

// LabelOnly reports whether the dataset carries labels but no feature
// vectors.
func (d *Dataset) LabelOnly() bool { return d.X == nil }

// Validate checks internal consistency. A label-only dataset passes when
// its labels do; a non-nil X must hold one equal-width row per label.
func (d *Dataset) Validate() error {
	if d.X != nil && len(d.X) != len(d.Y) {
		return fmt.Errorf("data: %d feature rows but %d labels", len(d.X), len(d.Y))
	}
	if d.Classes < 2 {
		return fmt.Errorf("data: need at least 2 classes, got %d", d.Classes)
	}
	if len(d.Y) == 0 {
		return fmt.Errorf("data: empty dataset")
	}
	if d.X != nil {
		dim := len(d.X[0])
		for i, x := range d.X {
			if len(x) != dim {
				return fmt.Errorf("data: row %d has %d features, row 0 has %d", i, len(x), dim)
			}
		}
	}
	for i, y := range d.Y {
		if y < 0 || y >= d.Classes {
			return fmt.Errorf("data: label %d out of range at %d", y, i)
		}
	}
	return nil
}

// Split partitions the dataset into a training prefix and testing suffix
// after a deterministic shuffle with the given seed. Both halves of a
// label-only dataset are label-only.
func (d *Dataset) Split(trainFrac float64, seed int64) (train, test *Dataset, err error) {
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	if !(trainFrac > 0 && trainFrac < 1) {
		return nil, nil, fmt.Errorf("data: trainFrac must be in (0,1), got %v", trainFrac)
	}
	idx := rand.New(rand.NewSource(seed)).Perm(d.Len())
	cut := int(float64(d.Len()) * trainFrac)
	if cut == 0 || cut == d.Len() {
		return nil, nil, fmt.Errorf("data: split of %d examples at %v leaves an empty side", d.Len(), trainFrac)
	}
	pick := func(ids []int) *Dataset {
		out := &Dataset{Name: d.Name, Classes: d.Classes}
		for _, i := range ids {
			if !d.LabelOnly() {
				out.X = append(out.X, d.X[i])
			}
			out.Y = append(out.Y, d.Y[i])
		}
		return out
	}
	return pick(idx[:cut]), pick(idx[cut:]), nil
}

// Subset returns the first n examples (used to grow training sets across
// incremental commits). The subset of a label-only dataset is label-only.
func (d *Dataset) Subset(n int) (*Dataset, error) {
	if n <= 0 || n > d.Len() {
		return nil, fmt.Errorf("data: subset size %d out of range (len %d)", n, d.Len())
	}
	out := &Dataset{Name: d.Name, Classes: d.Classes, Y: d.Y[:n]}
	if !d.LabelOnly() {
		out.X = d.X[:n]
	}
	return out, nil
}

// Blobs generates a Gaussian-blob classification task: `classes` isotropic
// clusters in `dim` dimensions with the given within-cluster spread. Larger
// spread makes the task harder.
func Blobs(n, classes, dim int, spread float64, seed int64) (*Dataset, error) {
	if n < classes || classes < 2 || dim < 1 {
		return nil, fmt.Errorf("data: invalid blob shape n=%d classes=%d dim=%d", n, classes, dim)
	}
	if spread <= 0 {
		return nil, fmt.Errorf("data: spread must be positive, got %v", spread)
	}
	rng := rand.New(rand.NewSource(seed))
	// Class centers on the unit hypercube corners-ish, scaled apart.
	centers := make([][]float64, classes)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = rng.NormFloat64() * 2
		}
	}
	ds := &Dataset{Name: "blobs", Classes: classes}
	for i := 0; i < n; i++ {
		c := i % classes
		x := make([]float64, dim)
		for j := range x {
			x[j] = centers[c][j] + rng.NormFloat64()*spread
		}
		ds.X = append(ds.X, x)
		ds.Y = append(ds.Y, c)
	}
	return ds, nil
}
