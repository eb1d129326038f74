package engine

import (
	"fmt"
	"testing"

	"github.com/easeml/ci/internal/condlang"
	"github.com/easeml/ci/internal/core"
	"github.com/easeml/ci/internal/evaluator"
	"github.com/easeml/ci/internal/interval"
	"github.com/easeml/ci/internal/labeling"
	"github.com/easeml/ci/internal/planner"
	"github.com/easeml/ci/internal/script"
)

// The scalar reference oracle. These element-wise implementations predate
// the packed core and are kept verbatim as its equivalence oracle:
// property tests drive a packed engine and a scalar one over identical
// commit sequences and assert byte-identical results, the same pattern
// bounds.ExactWorstCaseFailureGrid serves for the event-driven sweep. They
// live in a test file so production builds carry one evaluator; an engine
// reaches them only through the referenceEval seam that useScalarOracle
// sets.

// useScalarOracle routes eng's measurement through the scalar reference
// paths instead of the packed core.
func useScalarOracle(eng *Engine) {
	eng.referenceEval = eng.evaluateConditionScalar
}

// evaluateConditionScalar dispatches the scalar reference path.
func (e *Engine) evaluateConditionScalar(newPreds []int) (Evaluation, error) {
	switch e.plan.Kind {
	case core.Pattern1, core.Pattern2:
		return e.evaluateActiveLabelingScalar(newPreds)
	default:
		return e.evaluateFullyLabeledScalar(newPreds)
	}
}

// evaluateFullyLabeledScalar is the scalar baseline path made sequential:
// the counts feeding the shared look decisions come from element-wise
// walks instead of popcounts, and labels are revealed one oracle round
// trip at a time in the same ascending-prefix order the packed path's
// chunk reveals use — so both paths make bit-identical look decisions.
func (e *Engine) evaluateFullyLabeledScalar(newPreds []int) (Evaluation, error) {
	if e.early.Disable {
		return e.evaluateFullyLabeledScalarStatic(newPreds)
	}
	ts := e.tsm.Current()
	n := ts.Len()
	startUnrevealed := n - ts.RevealedCount()
	fresh, looks := 0, 0
	for {
		var revealed, matchN, matchO, diffCount, unrevDis int
		for i := 0; i < n; i++ {
			dis := e.active[i] != newPreds[i]
			if dis {
				diffCount++
			}
			if ts.Revealed(i) {
				revealed++
				y := ts.Data.Y[i]
				if newPreds[i] == y {
					matchN++
				}
				if e.active[i] == y {
					matchO++
				}
			} else if dis {
				unrevDis++
			}
		}
		if revealed == n {
			break
		}
		c := lookCounts{
			total:         n,
			revealed:      revealed,
			matchN:        matchN,
			matchO:        matchO,
			diffCount:     diffCount,
			unrevealedDis: unrevDis,
		}
		truth, forced := e.decideFullyLabeled(c, looks+1)
		if forced {
			return finishPartialFull(truth, c, fresh, looks, startUnrevealed), nil
		}
		target := planner.NextLook(revealed, n, e.early.FirstLook, e.early.Growth)
		for i := 0; i < n && revealed < target; i++ {
			if ts.Revealed(i) {
				continue
			}
			if _, _, err := e.revealLabel(i); err != nil {
				return Evaluation{}, err
			}
			fresh++
			revealed++
		}
		looks++
	}
	// Fully revealed: the legacy element-wise measurement, identical to
	// the static path's final evaluation.
	if len(e.labels) != n {
		e.labels = make([]int, n)
	}
	copy(e.labels, ts.Data.Y)
	est, err := evaluator.Measure(e.active, newPreds, e.labels)
	if err != nil {
		return Evaluation{}, err
	}
	truth, err := evaluator.EvalFormula(e.cfg.Condition, est)
	if err != nil {
		return Evaluation{}, err
	}
	ev := Evaluation{Truth: truth, D: est.Values[condlang.VarD], FreshLabels: fresh, Looks: looks}
	if nv, ok := est.Values[condlang.VarN]; ok {
		ev.N, ev.O, ev.HasAccuracy = nv, est.Values[condlang.VarO], true
	}
	return ev, nil
}

// evaluateFullyLabeledScalarStatic is the pre-sequential scalar baseline:
// every label is revealed one oracle round trip at a time and the three
// variables are measured by an element-wise walk. The label column reuses
// the engine-owned scratch buffer rather than reallocating per commit.
func (e *Engine) evaluateFullyLabeledScalarStatic(newPreds []int) (Evaluation, error) {
	ts := e.tsm.Current()
	if len(e.labels) != ts.Len() {
		e.labels = make([]int, ts.Len())
	}
	labels := e.labels
	fresh := 0
	for i := range labels {
		y, isFresh, err := e.revealLabel(i)
		if err != nil {
			return Evaluation{}, err
		}
		labels[i] = y
		if isFresh {
			fresh++
		}
	}
	est, err := evaluator.Measure(e.active, newPreds, labels)
	if err != nil {
		return Evaluation{}, err
	}
	truth, err := evaluator.EvalFormula(e.cfg.Condition, est)
	if err != nil {
		return Evaluation{}, err
	}
	ev := Evaluation{Truth: truth, D: est.Values[condlang.VarD], FreshLabels: fresh}
	if nv, ok := est.Values[condlang.VarN]; ok {
		ev.N, ev.O, ev.HasAccuracy = nv, est.Values[condlang.VarO], true
	}
	return ev, nil
}

// evaluateActiveLabelingScalar is the scalar active-labeling path made
// sequential: d from an element-wise disagreement count, disagreement-set
// labels revealed one at a time in ascending order toward the same chunk
// targets the packed path uses, with the shared forced-verdict check
// between chunks.
func (e *Engine) evaluateActiveLabelingScalar(newPreds []int) (Evaluation, error) {
	if e.early.Disable {
		return e.evaluateActiveLabelingScalarStatic(newPreds)
	}
	ts := e.tsm.Current()
	n := ts.Len()
	diffCount, startUnrevDis := 0, 0
	for i := 0; i < n; i++ {
		if e.active[i] != newPreds[i] {
			diffCount++
			if !ts.Revealed(i) {
				startUnrevDis++
			}
		}
	}
	dHat := float64(diffCount) / float64(n)
	staticCost := e.activeStaticCost(dHat, startUnrevDis)
	fresh, looks := 0, 0
	for {
		revealedDis, sumR := 0, 0
		for i := 0; i < n; i++ {
			if e.active[i] == newPreds[i] || !ts.Revealed(i) {
				continue
			}
			revealedDis++
			y := ts.Data.Y[i]
			if newPreds[i] == y {
				sumR++
			}
			if e.active[i] == y {
				sumR--
			}
		}
		if revealedDis == diffCount {
			break
		}
		truth, forced, err := e.decideActive(dHat, n, sumR, revealedDis, diffCount, looks+1)
		if err != nil {
			return Evaluation{}, err
		}
		if forced {
			return Evaluation{
				Truth:       truth,
				D:           dHat,
				FreshLabels: fresh,
				Looks:       looks,
				EarlyExit:   true,
				LabelsSaved: staticCost - fresh,
			}, nil
		}
		target := planner.NextLook(revealedDis, diffCount, e.early.FirstLook, e.early.Growth)
		for i := 0; i < n && revealedDis < target; i++ {
			if e.active[i] == newPreds[i] || ts.Revealed(i) {
				continue
			}
			if _, _, err := e.revealLabel(i); err != nil {
				return Evaluation{}, err
			}
			fresh++
			revealedDis++
		}
		looks++
	}
	// Every disagreement is labeled: the exact clause loop, identical to
	// the static path's final evaluation.
	ev := Evaluation{D: dHat, FreshLabels: fresh, Looks: looks}
	truth := interval.True
	for _, clause := range e.cfg.Condition.Clauses {
		lf, err := condlang.Linearize(clause.Expr)
		if err != nil {
			return Evaluation{}, err
		}
		var t interval.Truth
		switch {
		case len(lf.Coef) == 1 && lf.Coef[condlang.VarD] == 1:
			t, err = evaluator.EvalClauseLHS(clause, dHat, clause.Tolerance)
			if err != nil {
				return Evaluation{}, err
			}
		case len(lf.Coef) == 2 && lf.Coef[condlang.VarN] == 1 && lf.Coef[condlang.VarO] == -1:
			sum := 0
			for i := 0; i < n; i++ {
				if e.active[i] == newPreds[i] {
					continue
				}
				y := ts.Data.Y[i]
				if newPreds[i] == y {
					sum++
				}
				if e.active[i] == y {
					sum--
				}
			}
			t, err = evaluator.EvalClauseLHS(clause, float64(sum)/float64(n), clause.Tolerance)
			if err != nil {
				return Evaluation{}, err
			}
		default:
			return Evaluation{}, fmt.Errorf("engine: pattern plan cannot evaluate clause %q", clause)
		}
		truth = truth.And(t)
	}
	ev.Truth = truth
	return ev, nil
}

// evaluateActiveLabelingScalarStatic is the pre-sequential scalar active
// path: labels revealed one at a time for the disagreeing examples only —
// unless an earlier clause already collapsed the conjunction to False,
// mirroring the packed path's short-circuit so the equivalence suites
// stay byte-identical.
func (e *Engine) evaluateActiveLabelingScalarStatic(newPreds []int) (Evaluation, error) {
	ts := e.tsm.Current()
	n := ts.Len()
	diff := 0
	for i := 0; i < n; i++ {
		if e.active[i] != newPreds[i] {
			diff++
		}
	}
	dHat := float64(diff) / float64(n)
	ev := Evaluation{D: dHat}

	truth := interval.True
	fresh := 0
	for _, clause := range e.cfg.Condition.Clauses {
		if truth == interval.False {
			// And is monotone: the conjunction is already fixed, so never
			// pay the n-o clause's disagreement-set labels after a False.
			break
		}
		lf, err := condlang.Linearize(clause.Expr)
		if err != nil {
			return Evaluation{}, err
		}
		var t interval.Truth
		switch {
		case len(lf.Coef) == 1 && lf.Coef[condlang.VarD] == 1:
			t, err = evaluator.EvalClauseLHS(clause, dHat, clause.Tolerance)
			if err != nil {
				return Evaluation{}, err
			}
		case len(lf.Coef) == 2 && lf.Coef[condlang.VarN] == 1 && lf.Coef[condlang.VarO] == -1:
			// Measure n - o over disagreements only: agreements contribute 0.
			sum := 0
			for i := 0; i < n; i++ {
				if e.active[i] == newPreds[i] {
					continue
				}
				y, isFresh, err := e.revealLabel(i)
				if err != nil {
					return Evaluation{}, err
				}
				if isFresh {
					fresh++
				}
				if newPreds[i] == y {
					sum++
				}
				if e.active[i] == y {
					sum--
				}
			}
			lhs := float64(sum) / float64(n)
			t, err = evaluator.EvalClauseLHS(clause, lhs, clause.Tolerance)
			if err != nil {
				return Evaluation{}, err
			}
		default:
			return Evaluation{}, fmt.Errorf("engine: pattern plan cannot evaluate clause %q", clause)
		}
		truth = truth.And(t)
	}
	ev.Truth = truth
	ev.FreshLabels = fresh
	return ev, nil
}

// revealLabel pays for one label through the oracle, cross-checking it
// against the testset's ground truth bookkeeping.
func (e *Engine) revealLabel(i int) (int, bool, error) {
	ts := e.tsm.Current()
	fresh := !ts.Revealed(i)
	y, err := e.oracle.Label(i)
	if err != nil {
		return 0, false, err
	}
	stored, _, err := ts.Reveal(i)
	if err != nil {
		return 0, false, err
	}
	if fresh {
		e.evalReveals = append(e.evalReveals, i)
	}
	if stored != y {
		return 0, false, fmt.Errorf("engine: oracle label %d disagrees with testset ground truth %d at example %d", y, stored, i)
	}
	return y, fresh, nil
}

// BenchmarkCommitEval/scalar is the element-wise half of the root
// package's BenchmarkCommitEval pair: steady-state evaluation of the same
// n=1e5 fully-labeled workload through the scalar oracle, kept beside the
// oracle it measures so the packed core's speed-up stays reproducible.
func BenchmarkCommitEval(b *testing.B) {
	const n = 100000
	b.Run(fmt.Sprintf("scalar/n=%d", n), func(b *testing.B) {
		ds := indexDataset(n, 4)
		cfg := mustConfig(b, "n - 1.1 * o > -0.3 +/- 0.3", 0.99, interval.FPFree,
			script.Adaptivity{Kind: script.AdaptivityFull}, 4096)
		eng, err := New(cfg, ds, labeling.NewTruthOracle(ds.Y), Options{
			InitialModel: simModel(b, "h0", ds, 0.8, 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		useScalarOracle(eng)
		m := simModel(b, "candidate", ds, 0.85, 2)
		// Warm up: first evaluation reveals every label.
		ev, err := eng.Evaluate(m)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev, err = eng.Evaluate(m)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(ev.D, "d_hat")
	})
}
