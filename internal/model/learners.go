package model

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/easeml/ci/internal/data"
)

// validateFeatured is Validate plus the refusal of a label-only dataset,
// which a learner has no features to train on.
func validateFeatured(ds *data.Dataset) error {
	if err := ds.Validate(); err != nil {
		return err
	}
	if ds.LabelOnly() {
		return fmt.Errorf("model: cannot train on dataset %q: it is label-only", ds.Name)
	}
	return nil
}

// NaiveBayes is a multinomial naive Bayes classifier with Laplace
// smoothing, suited to bag-of-words count features (the emotion corpus).
type NaiveBayes struct {
	name     string
	logPrior []float64
	logProb  [][]float64 // [class][feature]
}

// TrainNaiveBayes fits the classifier on count-valued features.
func TrainNaiveBayes(name string, ds *data.Dataset, smoothing float64) (*NaiveBayes, error) {
	if err := validateFeatured(ds); err != nil {
		return nil, err
	}
	if smoothing <= 0 {
		return nil, fmt.Errorf("model: smoothing must be positive, got %v", smoothing)
	}
	k := ds.Classes
	dim := len(ds.X[0])
	counts := make([][]float64, k)
	classTotal := make([]float64, k)
	classN := make([]float64, k)
	for c := 0; c < k; c++ {
		counts[c] = make([]float64, dim)
	}
	for i, x := range ds.X {
		c := ds.Y[i]
		classN[c]++
		for j, v := range x {
			if v < 0 {
				return nil, fmt.Errorf("model: naive Bayes needs non-negative counts, got %v", v)
			}
			counts[c][j] += v
			classTotal[c] += v
		}
	}
	nb := &NaiveBayes{name: name}
	nb.logPrior = make([]float64, k)
	nb.logProb = make([][]float64, k)
	for c := 0; c < k; c++ {
		nb.logPrior[c] = math.Log((classN[c] + 1) / (float64(ds.Len()) + float64(k)))
		nb.logProb[c] = make([]float64, dim)
		denom := classTotal[c] + smoothing*float64(dim)
		for j := 0; j < dim; j++ {
			nb.logProb[c][j] = math.Log((counts[c][j] + smoothing) / denom)
		}
	}
	return nb, nil
}

// Name implements Predictor.
func (nb *NaiveBayes) Name() string { return nb.name }

// Predict implements Predictor.
func (nb *NaiveBayes) Predict(x []float64) int {
	best, bestScore := 0, math.Inf(-1)
	for c := range nb.logPrior {
		s := nb.logPrior[c]
		for j, v := range x {
			if v != 0 && j < len(nb.logProb[c]) {
				s += v * nb.logProb[c][j]
			}
		}
		if s > bestScore {
			best, bestScore = c, s
		}
	}
	return best
}

// SoftmaxRegression is multiclass logistic regression trained with
// mini-batch SGD.
type SoftmaxRegression struct {
	name string
	w    [][]float64 // [class][feature+1], last column is the bias
}

// SoftmaxConfig holds training hyperparameters.
type SoftmaxConfig struct {
	Epochs    int
	LearnRate float64
	L2        float64
	Seed      int64
}

// TrainSoftmax fits the model.
func TrainSoftmax(name string, ds *data.Dataset, cfg SoftmaxConfig) (*SoftmaxRegression, error) {
	if err := validateFeatured(ds); err != nil {
		return nil, err
	}
	if cfg.Epochs < 1 || cfg.LearnRate <= 0 || cfg.L2 < 0 {
		return nil, fmt.Errorf("model: invalid softmax config %+v", cfg)
	}
	k := ds.Classes
	dim := len(ds.X[0])
	m := &SoftmaxRegression{name: name, w: make([][]float64, k)}
	for c := range m.w {
		m.w[c] = make([]float64, dim+1)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	scores := make([]float64, k)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := rng.Perm(ds.Len())
		lr := cfg.LearnRate / (1 + 0.1*float64(epoch))
		for _, i := range perm {
			x, y := ds.X[i], ds.Y[i]
			m.scores(x, scores)
			softmaxInPlace(scores)
			for c := 0; c < k; c++ {
				g := scores[c]
				if c == y {
					g -= 1
				}
				wc := m.w[c]
				for j, v := range x {
					if v != 0 {
						wc[j] -= lr * (g*v + cfg.L2*wc[j])
					}
				}
				wc[dim] -= lr * g
			}
		}
	}
	return m, nil
}

func (m *SoftmaxRegression) scores(x []float64, out []float64) {
	dim := len(m.w[0]) - 1
	for c, wc := range m.w {
		s := wc[dim]
		for j, v := range x {
			if v != 0 && j < dim {
				s += wc[j] * v
			}
		}
		out[c] = s
	}
}

func softmaxInPlace(s []float64) {
	maxS := s[0]
	for _, v := range s[1:] {
		if v > maxS {
			maxS = v
		}
	}
	sum := 0.0
	for i := range s {
		s[i] = math.Exp(s[i] - maxS)
		sum += s[i]
	}
	for i := range s {
		s[i] /= sum
	}
}

// Name implements Predictor.
func (m *SoftmaxRegression) Name() string { return m.name }

// Predict implements Predictor.
func (m *SoftmaxRegression) Predict(x []float64) int {
	scores := make([]float64, len(m.w))
	m.scores(x, scores)
	best := 0
	for c, s := range scores {
		if s > scores[best] {
			best = c
		}
	}
	return best
}

// Perceptron is a multiclass averaged perceptron.
type Perceptron struct {
	name string
	w    [][]float64
}

// TrainPerceptron fits an averaged perceptron for the given epochs.
func TrainPerceptron(name string, ds *data.Dataset, epochs int, seed int64) (*Perceptron, error) {
	if err := validateFeatured(ds); err != nil {
		return nil, err
	}
	if epochs < 1 {
		return nil, fmt.Errorf("model: epochs must be >= 1, got %d", epochs)
	}
	k := ds.Classes
	dim := len(ds.X[0])
	w := make([][]float64, k)
	acc := make([][]float64, k) // running sum for averaging
	for c := 0; c < k; c++ {
		w[c] = make([]float64, dim+1)
		acc[c] = make([]float64, dim+1)
	}
	rng := rand.New(rand.NewSource(seed))
	score := func(c int, x []float64) float64 {
		s := w[c][dim]
		for j, v := range x {
			if v != 0 {
				s += w[c][j] * v
			}
		}
		return s
	}
	for e := 0; e < epochs; e++ {
		for _, i := range rng.Perm(ds.Len()) {
			x, y := ds.X[i], ds.Y[i]
			best := 0
			for c := 1; c < k; c++ {
				if score(c, x) > score(best, x) {
					best = c
				}
			}
			if best != y {
				for j, v := range x {
					if v != 0 {
						w[y][j] += v
						w[best][j] -= v
					}
				}
				w[y][dim]++
				w[best][dim]--
			}
			for c := 0; c < k; c++ {
				for j := range w[c] {
					acc[c][j] += w[c][j]
				}
			}
		}
	}
	total := float64(epochs * ds.Len())
	for c := 0; c < k; c++ {
		for j := range acc[c] {
			acc[c][j] /= total
		}
	}
	return &Perceptron{name: name, w: acc}, nil
}

// Name implements Predictor.
func (p *Perceptron) Name() string { return p.name }

// Predict implements Predictor.
func (p *Perceptron) Predict(x []float64) int {
	dim := len(p.w[0]) - 1
	best, bestScore := 0, math.Inf(-1)
	for c, wc := range p.w {
		s := wc[dim]
		for j, v := range x {
			if v != 0 && j < dim {
				s += wc[j] * v
			}
		}
		if s > bestScore {
			best, bestScore = c, s
		}
	}
	return best
}

// Majority always predicts the most frequent training class; the weakest
// sensible baseline for quality-floor conditions (F1).
type Majority struct {
	name  string
	class int
}

// TrainMajority fits the majority-class baseline.
func TrainMajority(name string, ds *data.Dataset) (*Majority, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	counts := make([]int, ds.Classes)
	for _, y := range ds.Y {
		counts[y]++
	}
	best := 0
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	return &Majority{name: name, class: best}, nil
}

// Name implements Predictor.
func (m *Majority) Name() string { return m.name }

// Predict implements Predictor.
func (m *Majority) Predict(x []float64) int { return m.class }
