package engine

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"github.com/easeml/ci/internal/data"
	"github.com/easeml/ci/internal/interval"
	"github.com/easeml/ci/internal/labeling"
	"github.com/easeml/ci/internal/notify"
	"github.com/easeml/ci/internal/script"
)

// journalTrace records journal callbacks as printable events.
type journalTrace struct {
	events []string
	fail   bool
}

func (j *journalTrace) JournalReveal(n int) error {
	if j.fail {
		return fmt.Errorf("journal down")
	}
	j.events = append(j.events, fmt.Sprintf("reveal:%d", n))
	return nil
}

func (j *journalTrace) JournalCharge(n int) error {
	if j.fail {
		return fmt.Errorf("journal down")
	}
	j.events = append(j.events, fmt.Sprintf("charge:%d", n))
	return nil
}

func (j *journalTrace) JournalPromote(m string) error {
	if j.fail {
		return fmt.Errorf("journal down")
	}
	j.events = append(j.events, "promote:"+m)
	return nil
}

func (j *journalTrace) JournalLooks(looks, saved int, early bool) error {
	if j.fail {
		return fmt.Errorf("journal down")
	}
	j.events = append(j.events, fmt.Sprintf("looks:%d/%d/%v", looks, saved, early))
	return nil
}

// TestSnapshotRestoreRoundTrip snapshots a mid-flight engine, pushes the
// snapshot through a JSON round trip (the durable on-disk form), restores
// it, and drives both engines through identical further commits. Every
// observable — histories, ledgers, revealed counts, baselines — must be
// byte-identical between the survivor and the restored engine.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for _, kind := range []script.AdaptivityKind{script.AdaptivityFull, script.AdaptivityNone, script.AdaptivityFirstChange} {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			ds := indexDataset(400, 4)
			cfg := mustConfig(t, "n - o > -0.02 +/- 0.1", 0.95, interval.FPFree,
				script.Adaptivity{Kind: kind, Email: "3rd@party"}, 6)
			newEng := func() *Engine {
				e, err := New(cfg, ds, labeling.NewTruthOracle(ds.Y), Options{
					InitialModel: simModel(t, "h0", ds, 0.6, 1),
					Notifier:     notify.Discard{},
				})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			live := newEng()
			for i := 0; i < 3; i++ {
				acc := 0.55 + 0.05*float64(i%3)
				if _, err := live.Commit(simModel(t, fmt.Sprintf("m%d", i), ds, acc, int64(i+2)), "dev", "msg"); err != nil {
					t.Fatal(err)
				}
			}

			blob, err := json.Marshal(live.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			var st State
			if err := json.Unmarshal(blob, &st); err != nil {
				t.Fatal(err)
			}
			restored, err := Restore(cfg, st, Options{Notifier: notify.Discard{}})
			if err != nil {
				t.Fatal(err)
			}

			// Same further traffic on both engines.
			for i := 3; i < 6; i++ {
				m := simModel(t, fmt.Sprintf("m%d", i), ds, 0.7, int64(i+2))
				rLive, errLive := live.Commit(m, "dev", "msg")
				rRest, errRest := restored.Commit(m, "dev", "msg")
				if (errLive == nil) != (errRest == nil) {
					t.Fatalf("commit %d: live err %v, restored err %v", i, errLive, errRest)
				}
				if errLive != nil {
					if errLive.Error() != errRest.Error() {
						t.Fatalf("commit %d errors diverge: %v vs %v", i, errLive, errRest)
					}
					break
				}
				a, _ := json.Marshal(rLive)
				b, _ := json.Marshal(rRest)
				if string(a) != string(b) {
					t.Fatalf("commit %d results diverge:\n%s\n%s", i, a, b)
				}
			}

			ha, _ := json.Marshal(live.History())
			hb, _ := json.Marshal(restored.History())
			if string(ha) != string(hb) {
				t.Fatalf("histories diverge:\n%s\n%s", ha, hb)
			}
			if a, b := live.LabelCost().Total(), restored.LabelCost().Total(); a != b {
				t.Fatalf("label totals diverge: %d vs %d", a, b)
			}
			if a, b := live.Testsets().Current().RevealedCount(), restored.Testsets().Current().RevealedCount(); a != b {
				t.Fatalf("revealed counts diverge: %d vs %d", a, b)
			}
			if a, b := live.ActiveModelName(), restored.ActiveModelName(); a != b {
				t.Fatalf("baselines diverge: %q vs %q", a, b)
			}
			if a, b := live.Testsets().Used(), restored.Testsets().Used(); a != b {
				t.Fatalf("budget used diverges: %d vs %d", a, b)
			}
		})
	}
}

// TestSnapshotIsDetached mutating the live engine after Snapshot must not
// leak into the captured state.
func TestSnapshotIsDetached(t *testing.T) {
	ds := indexDataset(400, 3)
	cfg := mustConfig(t, "d < 0.5 +/- 0.1", 0.95, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityFull}, 5)
	eng, err := New(cfg, ds, labeling.NewTruthOracle(ds.Y), Options{
		InitialModel: simModel(t, "h0", ds, 0.6, 1),
		Notifier:     notify.Discard{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Commit(simModel(t, "m0", ds, 0.62, 2), "dev", "a"); err != nil {
		t.Fatal(err)
	}
	st := eng.Snapshot()
	before, _ := json.Marshal(st)
	if _, err := eng.Commit(simModel(t, "m1", ds, 0.64, 3), "dev", "b"); err != nil {
		t.Fatal(err)
	}
	after, _ := json.Marshal(st)
	if string(before) != string(after) {
		t.Fatal("snapshot changed when the live engine advanced")
	}
	if len(st.History) != 1 || len(eng.History()) != 2 {
		t.Fatalf("history lengths: snapshot %d live %d", len(st.History), len(eng.History()))
	}
}

// TestJournalSequence checks the callback order and that a journal error
// aborts the commit before it reaches history. Early decision is disabled
// so the reveal counts are the static plan's deterministic full-testset
// numbers (the early-mode journal is covered separately below).
func TestJournalSequence(t *testing.T) {
	ds := indexDataset(600, 3)
	cfg := mustConfig(t, "n > 0.5 +/- 0.08", 0.95, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityFull}, 5)
	eng, err := New(cfg, ds, labeling.NewTruthOracle(ds.Y), Options{
		InitialModel:  simModel(t, "h0", ds, 0.5, 1),
		Notifier:      notify.Discard{},
		EarlyDecision: EarlyDecision{Disable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := &journalTrace{}
	eng.SetJournal(tr)

	if _, err := eng.Commit(simModel(t, "good", ds, 0.9, 2), "dev", "pass"); err != nil {
		t.Fatal(err)
	}
	n := ds.Len()
	want := fmt.Sprintf("[reveal:%d charge:%d promote:good]", n, n)
	if got := fmt.Sprint(tr.events); got != want {
		t.Fatalf("journal events = %v, want %v", got, want)
	}

	// Second commit reveals nothing fresh: charge:0, no reveal event.
	tr.events = nil
	if _, err := eng.Commit(simModel(t, "bad", ds, 0.2, 3), "dev", "fail"); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(tr.events); got != "[charge:0]" {
		t.Fatalf("journal events = %v, want [charge:0]", got)
	}

	tr.fail = true
	if _, err := eng.Commit(simModel(t, "m2", ds, 0.9, 4), "dev", "x"); err == nil {
		t.Fatal("commit with failing journal succeeded")
	}
	if len(eng.History()) != 2 {
		t.Fatalf("aborted commit reached history: %d entries", len(eng.History()))
	}
}

// TestJournalSequenceEarly checks that with early decision on (the
// default), every commit journals its look decision before the reveal it
// explains, with numbers matching the returned result — the audit stream
// durable replay cross-checks label charges against.
func TestJournalSequenceEarly(t *testing.T) {
	ds := indexDataset(600, 3)
	cfg := mustConfig(t, "n > 0.5 +/- 0.08", 0.95, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityFull}, 5)
	eng, err := New(cfg, ds, labeling.NewTruthOracle(ds.Y), Options{
		InitialModel: simModel(t, "h0", ds, 0.5, 1),
		Notifier:     notify.Discard{},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := &journalTrace{}
	eng.SetJournal(tr)

	res, err := eng.Commit(simModel(t, "good", ds, 0.9, 2), "dev", "pass")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("looks:%d/%d/%v", res.Looks, res.LabelsSaved, res.EarlyExit)
	if len(tr.events) == 0 || tr.events[0] != want {
		t.Fatalf("journal events = %v, want first event %q", tr.events, want)
	}
	if res.FreshLabels > 0 {
		if got := fmt.Sprintf("reveal:%d", res.FreshLabels); len(tr.events) < 2 || tr.events[1] != got {
			t.Fatalf("journal events = %v, want second event %q", tr.events, got)
		}
	}
	if got := fmt.Sprintf("charge:%d", res.FreshLabels); tr.events[len(tr.events)-2] != got {
		t.Fatalf("journal events = %v, want charge event %q", tr.events, got)
	}
	if tr.events[len(tr.events)-1] != "promote:good" {
		t.Fatalf("journal events = %v, want trailing promote", tr.events)
	}
}

// TestSnapshotBytesOfLabelOnlyTestset: an engine whose testsets are
// label-only snapshots to exactly the bytes of one whose testsets carry
// the index rows [[0],[1],…], through commits and a rotation, so making
// a server's testsets label-only leaves its snapshot files unchanged.
func TestSnapshotBytesOfLabelOnlyTestset(t *testing.T) {
	labelOnly := func(n, classes int) *data.Dataset {
		ds := indexDataset(n, classes)
		ds.X = nil
		return ds
	}
	cfg := mustConfig(t, "n - o > -0.02 +/- 0.1", 0.95, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityFull}, 4)
	snapshots := func(build func(n, classes int) *data.Dataset) []string {
		ds := build(400, 4)
		eng, err := New(cfg, ds, labeling.NewTruthOracle(ds.Y), Options{
			InitialModel: simModel(t, "h0", ds, 0.6, 1),
			Notifier:     notify.Discard{},
		})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		snap := func() {
			b, err := json.Marshal(eng.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(b))
		}
		snap()
		for i := 0; i < 3; i++ {
			if _, err := eng.Commit(simModel(t, fmt.Sprintf("m%d", i), ds, 0.6+0.05*float64(i), int64(i+2)), "dev", "msg"); err != nil {
				t.Fatal(err)
			}
			snap()
		}
		next := build(500, 4)
		if err := eng.RotateTestset(next, labeling.NewTruthOracle(next.Y), simModel(t, "carry", next, 0.7, 9)); err != nil {
			t.Fatal(err)
		}
		snap()
		if _, err := eng.Commit(simModel(t, "m3", next, 0.75, 10), "dev", "msg"); err != nil {
			t.Fatal(err)
		}
		snap()
		return out
	}
	want := snapshots(indexDataset)
	got := snapshots(labelOnly)
	if len(got) != len(want) {
		t.Fatalf("%d snapshots, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot %d of the label-only engine differs from the index-featured one", i)
		}
	}
	if !strings.Contains(want[0], `"X":[[0],[1],[2],`) {
		t.Fatalf("snapshot does not carry the index rows: %.200s", want[0])
	}
}
