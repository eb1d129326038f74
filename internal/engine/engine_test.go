package engine

import (
	"errors"
	"math"
	"testing"

	"github.com/easeml/ci/internal/condlang"
	"github.com/easeml/ci/internal/core"
	"github.com/easeml/ci/internal/data"
	"github.com/easeml/ci/internal/interval"
	"github.com/easeml/ci/internal/labeling"
	"github.com/easeml/ci/internal/model"
	"github.com/easeml/ci/internal/notify"
	"github.com/easeml/ci/internal/script"
)

// indexDataset builds a testset whose feature vector is the example index,
// so FixedPredictions models plug in directly.
func indexDataset(n, classes int) *data.Dataset {
	ds := &data.Dataset{Name: "index", Classes: classes}
	for i := 0; i < n; i++ {
		ds.X = append(ds.X, []float64{float64(i)})
		ds.Y = append(ds.Y, i%classes)
	}
	return ds
}

func mustConfig(t testing.TB, cond string, rel float64, mode interval.Mode, a script.Adaptivity, steps int) *script.Config {
	t.Helper()
	cfg, err := script.New(cond, rel, mode, a, steps)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func simModel(t testing.TB, name string, ds *data.Dataset, acc float64, seed int64) *model.FixedPredictions {
	t.Helper()
	preds, err := model.SimulatedPredictions(ds.Y, ds.Classes, acc, seed)
	if err != nil {
		t.Fatal(err)
	}
	return model.NewFixedPredictions(name, preds)
}

func simPair(t *testing.T, ds *data.Dataset, accOld, accNew, d float64, seed int64) (oldM, newM *model.FixedPredictions) {
	t.Helper()
	op, np, err := model.SimulatedPair(ds.Y, ds.Classes, accOld, accNew, d, seed)
	if err != nil {
		t.Fatal(err)
	}
	return model.NewFixedPredictions("old", op), model.NewFixedPredictions("new", np)
}

func TestEngineBaselineFlow(t *testing.T) {
	ds := indexDataset(600, 4)
	cfg := mustConfig(t, "n > 0.6 +/- 0.1", 0.99, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityFull}, 3)
	outbox := notify.NewOutbox()
	eng, err := New(cfg, ds, labeling.NewTruthOracle(ds.Y), Options{
		InitialModel: simModel(t, "h0", ds, 0.5, 1),
		Notifier:     outbox,
	})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Plan().Kind != core.Baseline {
		t.Fatalf("plan kind = %v, want baseline", eng.Plan().Kind)
	}

	// A strong model passes (n̂ ~ 0.9 > 0.6 + 0.1).
	res, err := eng.Commit(simModel(t, "good", ds, 0.9, 2), "dev", "strong model")
	if err != nil {
		t.Fatal(err)
	}
	if res.Truth != interval.True || !res.Pass || !res.Signal || !res.Promoted {
		t.Errorf("good commit: %+v", res)
	}
	// A clear pass stops revealing once the verdict is forced: the fresh
	// labels plus the reported savings always account for the whole testset.
	if res.FreshLabels+res.LabelsSaved != ds.Len() {
		t.Errorf("labels %d + saved %d != %d", res.FreshLabels, res.LabelsSaved, ds.Len())
	}
	if !res.EarlyExit || res.FreshLabels >= ds.Len() {
		t.Errorf("non-borderline commit should exit early: fresh=%d early=%v",
			res.FreshLabels, res.EarlyExit)
	}
	if eng.ActiveModelName() != "good" {
		t.Errorf("promotion failed: active = %q", eng.ActiveModelName())
	}
	if math.Abs(res.Estimates[condlang.VarN]-0.9) > 0.05 {
		t.Errorf("n estimate = %v", res.Estimates[condlang.VarN])
	}

	// A weak model fails and is not promoted.
	res, err = eng.Commit(simModel(t, "bad", ds, 0.3, 3), "dev", "weak model")
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass || res.Signal || res.Promoted {
		t.Errorf("bad commit: %+v", res)
	}
	if res.FreshLabels != 0 {
		t.Errorf("labels already paid for, got %d fresh", res.FreshLabels)
	}
	if eng.ActiveModelName() != "good" {
		t.Error("failed commit must not be promoted")
	}

	// History and repository agree.
	if len(eng.History()) != 2 || eng.Repository().Len() != 2 {
		t.Errorf("history = %d, repo = %d", len(eng.History()), eng.Repository().Len())
	}
}

func TestEnginePattern1ActiveLabeling(t *testing.T) {
	ds := indexDataset(2000, 4)
	cfg := mustConfig(t, "d < 0.1 +/- 0.01 /\\ n - o > 0.02 +/- 0.03", 0.99, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityNone, Email: "qa@x.y"}, 4)
	outbox := notify.NewOutbox()
	oldM, newM := simPair(t, ds, 0.80, 0.87, 0.08, 5)
	eng, err := New(cfg, ds, labeling.NewTruthOracle(ds.Y), Options{
		InitialModel: oldM,
		Notifier:     outbox,
	})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Plan().Kind != core.Pattern1 {
		t.Fatalf("plan kind = %v, want pattern1", eng.Plan().Kind)
	}

	res, err := eng.Commit(newM, "dev", "fine-tuned")
	if err != nil {
		t.Fatal(err)
	}
	// d̂ ~ 0.08 < 0.1 - 0.01 -> True; diff ~ 0.07 > 0.02 + 0.03 -> True.
	if res.Truth != interval.True || !res.Pass {
		t.Errorf("commit result: truth=%v pass=%v estimates=%v", res.Truth, res.Pass, res.Estimates)
	}
	// Active labeling: only disagreements are labeled (~8% of 2000).
	if res.FreshLabels > 300 {
		t.Errorf("active labeling spent %d labels, want ~160", res.FreshLabels)
	}
	if res.FreshLabels < 100 {
		t.Errorf("suspiciously few labels: %d", res.FreshLabels)
	}
	// Accuracy estimates are unavailable; d is reported.
	if _, ok := res.Estimates[condlang.VarN]; ok {
		t.Error("active labeling cannot report n")
	}
	if math.Abs(res.Estimates[condlang.VarD]-0.08) > 0.02 {
		t.Errorf("d estimate = %v", res.Estimates[condlang.VarD])
	}
	// Non-adaptive mode: developer always sees accepted; truth emailed.
	if !res.Signal {
		t.Error("non-adaptive mode must signal accepted")
	}
	results := outbox.ByKind(notify.KindResult)
	if len(results) != 1 || results[0].To != "qa@x.y" {
		t.Errorf("third-party routing wrong: %+v", results)
	}
}

func TestEngineNoneModeHidesFailure(t *testing.T) {
	ds := indexDataset(600, 4)
	cfg := mustConfig(t, "n > 0.6 +/- 0.1", 0.99, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityNone, Email: "qa@x.y"}, 3)
	outbox := notify.NewOutbox()
	eng, err := New(cfg, ds, labeling.NewTruthOracle(ds.Y), Options{
		InitialModel: simModel(t, "h0", ds, 0.5, 1),
		Notifier:     outbox,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Commit(simModel(t, "bad", ds, 0.3, 9), "dev", "bad")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Signal {
		t.Error("developer must see accepted")
	}
	if res.Pass {
		t.Error("true outcome must be fail")
	}
	msgs := outbox.ByKind(notify.KindResult)
	if len(msgs) != 1 {
		t.Fatalf("expected 1 result email, got %d", len(msgs))
	}
}

func TestEngineFirstChangeRotation(t *testing.T) {
	ds := indexDataset(600, 4)
	cfg := mustConfig(t, "n > 0.6 +/- 0.1", 0.99, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityFirstChange}, 5)
	outbox := notify.NewOutbox()
	eng, err := New(cfg, ds, labeling.NewTruthOracle(ds.Y), Options{
		InitialModel: simModel(t, "h0", ds, 0.5, 1),
		Notifier:     outbox,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two failing commits: testset stays alive.
	for i := 0; i < 2; i++ {
		res, err := eng.Commit(simModel(t, "weak", ds, 0.3, int64(10+i)), "dev", "weak")
		if err != nil {
			t.Fatal(err)
		}
		if res.NeedNewTestset {
			t.Fatal("failing commits must not retire the hybrid testset")
		}
	}
	// A passing commit retires the testset immediately.
	good := simModel(t, "good", ds, 0.9, 20)
	res, err := eng.Commit(good, "dev", "good")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass || !res.NeedNewTestset {
		t.Errorf("hybrid pass must fire alarm: %+v", res)
	}
	if len(outbox.ByKind(notify.KindAlarm)) != 1 {
		t.Error("alarm email missing")
	}
	// Until rotation, commits are refused.
	if _, err := eng.Commit(good, "dev", "again"); !errors.Is(err, ErrNeedNewTestset) {
		t.Errorf("expected ErrNeedNewTestset, got %v", err)
	}
	// Rotate in fresh data; the good model carries over as baseline.
	next := indexDataset(600, 4)
	goodOnNext := simModel(t, "good", next, 0.9, 21)
	if err := eng.RotateTestset(next, labeling.NewTruthOracle(next.Y), goodOnNext); err != nil {
		t.Fatal(err)
	}
	if eng.Testsets().Current().Generation != 2 {
		t.Error("rotation did not advance generation")
	}
	res, err = eng.Commit(simModel(t, "better", next, 0.95, 22), "dev", "better")
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 2 || res.Step != 1 {
		t.Errorf("post-rotation result: gen=%d step=%d", res.Generation, res.Step)
	}
}

func TestEngineConstructionErrors(t *testing.T) {
	ds := indexDataset(600, 4)
	cfg := mustConfig(t, "n > 0.6 +/- 0.1", 0.99, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityFull}, 3)
	h0 := simModel(t, "h0", ds, 0.5, 1)
	oracle := labeling.NewTruthOracle(ds.Y)
	if _, err := New(nil, ds, oracle, Options{InitialModel: h0}); err == nil {
		t.Error("nil config should fail")
	}
	if _, err := New(cfg, ds, nil, Options{InitialModel: h0}); err == nil {
		t.Error("nil oracle should fail")
	}
	if _, err := New(cfg, ds, oracle, Options{}); err == nil {
		t.Error("missing initial model should fail")
	}
	tiny := indexDataset(10, 4)
	if _, err := New(cfg, tiny, labeling.NewTruthOracle(tiny.Y), Options{InitialModel: simModel(t, "h0", tiny, 0.5, 1)}); err == nil {
		t.Error("undersized testset should fail")
	}
}

func TestEngineCommitErrors(t *testing.T) {
	ds := indexDataset(600, 4)
	cfg := mustConfig(t, "n > 0.6 +/- 0.1", 0.99, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityFull}, 3)
	eng, err := New(cfg, ds, labeling.NewTruthOracle(ds.Y), Options{
		InitialModel: simModel(t, "h0", ds, 0.5, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Commit(nil, "dev", "oops"); err == nil {
		t.Error("nil model should fail")
	}
	if err := eng.RotateTestset(ds, nil, simModel(t, "h0", ds, 0.5, 1)); err == nil {
		t.Error("nil oracle on rotation should fail")
	}
	if err := eng.RotateTestset(ds, labeling.NewTruthOracle(ds.Y), nil); err == nil {
		t.Error("nil active model on rotation should fail")
	}
}

func TestEngineOracleMismatchDetected(t *testing.T) {
	ds := indexDataset(600, 4)
	cfg := mustConfig(t, "n > 0.6 +/- 0.1", 0.99, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityFull}, 3)
	wrong := make([]int, ds.Len()) // all zeros: disagrees with ground truth
	for i := range wrong {
		wrong[i] = (ds.Y[i] + 1) % 4
	}
	eng, err := New(cfg, ds, labeling.NewTruthOracle(wrong), Options{
		InitialModel: simModel(t, "h0", ds, 0.5, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Commit(simModel(t, "m", ds, 0.9, 2), "dev", "x"); err == nil {
		t.Error("oracle/ground-truth mismatch must be detected")
	}
}

func TestEngineLabelLedgerAccumulates(t *testing.T) {
	ds := indexDataset(2000, 4)
	cfg := mustConfig(t, "d < 0.1 +/- 0.01 /\\ n - o > 0.02 +/- 0.03", 0.99, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityNone, Email: "qa@x.y"}, 4)
	op, np, err := model.SimulatedPair(ds.Y, ds.Classes, 0.80, 0.87, 0.08, 5)
	if err != nil {
		t.Fatal(err)
	}
	oldM := model.NewFixedPredictions("old", op)
	// Early decision disabled: this test pins the static active-labeling
	// plan, where every disagreement is labeled and a similar second commit
	// must pay for its new disagreements.
	eng, err := New(cfg, ds, labeling.NewTruthOracle(ds.Y), Options{
		InitialModel:  oldM,
		EarlyDecision: EarlyDecision{Disable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Commit(model.NewFixedPredictions("new", np), "dev", "c1"); err != nil {
		t.Fatal(err)
	}
	first := eng.LabelCost().Total()
	// Re-committing a similar model re-labels only new disagreements: flip
	// a sprinkle of agreement points into disagreements (keeping d below
	// the failure threshold, so the short-circuit on a False d-clause does
	// not kick in) and check the ledger grows by exactly those points.
	np2 := append([]int(nil), np...)
	flipped := 0
	for i := 0; i < len(np2) && flipped < 30; i += 67 {
		if np2[i] == op[i] {
			np2[i] = (op[i] + 1) % ds.Classes
			flipped++
		}
	}
	if _, err := eng.Commit(model.NewFixedPredictions("new2", np2), "dev", "c2"); err != nil {
		t.Fatal(err)
	}
	if got := eng.LabelCost().Total(); got != first+flipped {
		t.Errorf("ledger total = %d, want %d + %d new disagreements", got, first, flipped)
	}
	if got := len(eng.LabelCost().PerCommit()); got != 2 {
		t.Errorf("per-commit entries = %d", got)
	}
}
