package main

import (
	"fmt"

	"github.com/easeml/ci/internal/data"
	"github.com/easeml/ci/internal/engine"
	"github.com/easeml/ci/internal/interval"
	"github.com/easeml/ci/internal/labeling"
	"github.com/easeml/ci/internal/model"
	"github.com/easeml/ci/internal/notify"
	"github.com/easeml/ci/internal/script"
	"github.com/easeml/ci/internal/server"
)

const (
	classes   = 4
	steps     = 32
	modelName = "h0"
	author    = "perfbench"
)

// tenantSpec is one tenant of a commit workload: its project ID, the
// condition its script checks and how its developers perturb the
// baseline.
type tenantSpec struct {
	id          string
	sc          perturbation
	n           int
	reliability float64
}

// pattern2 and pattern1 are the paper's two optimised condition shapes
// (Sections 4.1-4.2) at tolerance eps.
func pattern2(eps float64) perturbation {
	return perturbation{
		condition: fmt.Sprintf("n - o > 0.02 +/- %g", eps),
		dLo:       0.05, dHi: 0.15, deltaSD: 0.03,
	}
}

func pattern1(eps float64) perturbation {
	return perturbation{
		condition: fmt.Sprintf("d < 0.1 +/- %g /\\ n - o > -0.02 +/- %g", eps, eps),
		dLo:       0.02, dHi: 0.14, deltaSD: 0.01,
	}
}

// path is the tenant's API prefix: the default project keeps the flat
// paths.
func (t tenantSpec) path(rest string) string {
	if t.id == server.DefaultProject {
		return "/api/v1/" + rest
	}
	return "/api/v1/projects/" + t.id + "/" + rest
}

// tenantState is the client-side simulation of one tenant's developers:
// the current testset, the deployed baseline's predictions on it, and
// the running commit index. The live client and the verdict replay both
// drive it, so both produce the same candidate sequence.
type tenantState struct {
	spec     tenantSpec
	seed     int64
	gen      int
	labels   []int
	baseline []int
	commits  int
}

func newTenantState(seed int64, spec tenantSpec) *tenantState {
	t := &tenantState{spec: spec, seed: seed}
	t.draw()
	return t
}

// draw generates the current generation's testset and the deployed
// model's predictions on it. Each generation's baseline accuracy is drawn
// afresh from [0.70, 0.80], so promotions cannot ratchet it to 1.
func (t *tenantState) draw() {
	t.labels = genLabels(stream(t.seed, t.spec.id, "labels", t.gen), t.spec.n, classes)
	acc := 0.70 + 0.10*stream(t.seed, t.spec.id, "acc", t.gen).Float64()
	t.baseline = genModel(stream(t.seed, t.spec.id, "model", t.gen), t.labels, classes, acc)
}

// rotate moves to the next testset generation.
func (t *tenantState) rotate() {
	t.gen++
	t.draw()
}

// candidate derives the next commit's predictions from the baseline.
func (t *tenantState) candidate() (name string, preds []int) {
	r := stream(t.seed, t.spec.id, "commit", t.commits)
	name = fmt.Sprintf("c%d", t.commits)
	t.commits++
	return name, t.spec.sc.perturb(r, t.labels, t.baseline, classes)
}

func (t *tenantState) genesis() server.Genesis {
	return server.Genesis{
		Condition:        t.spec.sc.condition,
		Reliability:      t.spec.reliability,
		Mode:             interval.FPFree,
		Adaptivity:       script.Adaptivity{Kind: script.AdaptivityFull},
		Steps:            steps,
		Labels:           t.labels,
		Classes:          classes,
		ModelName:        modelName,
		ModelPredictions: t.baseline,
	}
}

func (t *tenantState) projectRequest() server.CreateProjectRequest {
	return server.CreateProjectRequest{ID: t.spec.id, ProjectSpec: server.ProjectSpec{
		Condition:        t.spec.sc.condition,
		Reliability:      t.spec.reliability,
		Steps:            steps,
		Labels:           t.labels,
		Classes:          classes,
		ModelName:        modelName,
		ModelPredictions: t.baseline,
	}}
}

// verdict is the part of a commit response the replay must reproduce.
type verdict struct {
	Step, Fresh, Looks int
	Signal, Pass, Need bool
}

func verdictOf(r server.CommitResponse) verdict {
	v := verdict{Step: r.Step, Fresh: r.FreshLabels, Looks: r.Looks, Signal: r.Signal, Need: r.NeedNewTestset}
	if r.Pass != nil {
		v.Pass = *r.Pass
	}
	return v
}

// step is one entry of a tenant's op log: a testset rotation, or a batch
// of commits all derived from the same baseline (one for a sync client,
// a window for an async one). After a batch the baseline becomes the
// batch's last passing candidate, as the server promoted it.
type step struct {
	rotate   bool
	verdicts []verdict
}

// replay re-runs a tenant's op log through an in-process engine built
// from the same genesis and early-decision defaults, and counts the
// commits whose verdict differs from what the server answered. After the
// first mismatch the candidate sequence can no longer be reproduced, so
// every later commit counts as mismatched too.
func replay(seed int64, spec tenantSpec, log []step) (mismatched int, err error) {
	t := newTenantState(seed, spec)
	g := t.genesis()
	cfg, err := script.New(g.Condition, g.Reliability, g.Mode, g.Adaptivity, g.Steps)
	if err != nil {
		return 0, err
	}
	eng, err := engine.New(cfg, dataset("genesis", t.labels), labeling.NewTruthOracle(t.labels), engine.Options{
		InitialModel: model.NewFixedPredictions(modelName, t.baseline),
		Notifier:     notify.NewOutbox(),
	})
	if err != nil {
		return 0, err
	}
	broken := false
	for _, st := range log {
		if st.rotate {
			t.rotate()
			ds := dataset("rotated", t.labels)
			active := model.NewFixedPredictions(eng.ActiveModelName(), t.baseline)
			if err := eng.RotateTestset(ds, labeling.NewTruthOracle(ds.Y), active); err != nil {
				return mismatched, fmt.Errorf("replay rotation: %w", err)
			}
			continue
		}
		var promoted []int
		for _, want := range st.verdicts {
			name, cand := t.candidate()
			if broken {
				mismatched++
				continue
			}
			res, err := eng.Commit(model.NewFixedPredictions(name, cand), author, "")
			got := verdict{Step: res.Step, Fresh: res.FreshLabels, Looks: res.Looks,
				Signal: res.Signal, Pass: res.Pass, Need: res.NeedNewTestset}
			if err != nil || got != want {
				broken = true
				mismatched++
				continue
			}
			if res.Pass {
				promoted = cand
			}
		}
		if promoted != nil {
			t.baseline = promoted
		}
	}
	return mismatched, nil
}

// dataset shapes labels the way the server does: features are the
// example indices.
func dataset(name string, labels []int) *data.Dataset {
	ds := &data.Dataset{Name: name, Classes: classes}
	for i, y := range labels {
		ds.X = append(ds.X, []float64{float64(i)})
		ds.Y = append(ds.Y, y)
	}
	return ds
}
