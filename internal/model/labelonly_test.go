package model

import (
	"fmt"
	"testing"

	"github.com/easeml/ci/internal/data"
)

// TestLabelOnlyDatasetConsumers runs every consumer of feature vectors on
// a label-only dataset: each must either refuse it with an error or carry
// X == nil through, and none may panic. The positional paths (the bulk
// and static predictors, the label-only majority learner) must work.
func TestLabelOnlyDatasetConsumers(t *testing.T) {
	ds := &data.Dataset{Name: "labels", Y: []int{0, 1, 1, 0, 1, 0, 1, 1}, Classes: 2}
	if err := ds.Validate(); err != nil {
		t.Fatalf("label-only dataset fails Validate: %v", err)
	}
	majority, err := TrainMajority("majority", ds)
	if err != nil {
		t.Fatalf("majority learner refuses a label-only dataset: %v", err)
	}
	labelOnly := func(parts ...*data.Dataset) error {
		for _, p := range parts {
			if !p.LabelOnly() {
				return fmt.Errorf("result has %d feature rows", len(p.X))
			}
		}
		return nil
	}
	cases := []struct {
		name    string
		run     func() error
		wantErr bool
	}{
		{"TrainNaiveBayes", func() error { _, err := TrainNaiveBayes("nb", ds, 1); return err }, true},
		{"TrainSoftmax", func() error {
			_, err := TrainSoftmax("sm", ds, SoftmaxConfig{Epochs: 1, LearnRate: 0.1, Seed: 1})
			return err
		}, true},
		{"TrainPerceptron", func() error { _, err := TrainPerceptron("pc", ds, 1, 1); return err }, true},
		{"PredictAllInto/element-wise", func() error { _, err := PredictAllInto(majority, ds, nil); return err }, true},
		{"PredictAll/element-wise", func() error { _, err := PredictAll(majority, ds); return err }, true},
		{"Accuracy/element-wise", func() error { _, err := Accuracy(majority, ds); return err }, true},
		{"PredictAllInto/bulk", func() error {
			got, err := PredictAllInto(NewFixedPredictions("fixed", ds.Y), ds, nil)
			if err == nil && fmt.Sprint(got) != fmt.Sprint(ds.Y) {
				err = fmt.Errorf("bulk predictions %v, want %v", got, ds.Y)
			}
			return err
		}, false},
		{"StaticPredictions", func() error {
			if _, ok := NewFixedPredictions("fixed", ds.Y).StaticPredictions(ds); !ok {
				return fmt.Errorf("no static predictions")
			}
			return nil
		}, false},
		{"Split", func() error {
			train, test, err := ds.Split(0.5, 1)
			if err != nil {
				return err
			}
			return labelOnly(train, test)
		}, false},
		{"Subset", func() error {
			sub, err := ds.Subset(5)
			if err != nil {
				return err
			}
			return labelOnly(sub)
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked on a label-only dataset: %v", r)
				}
			}()
			err := tc.run()
			if tc.wantErr && err == nil {
				t.Fatal("accepted a label-only dataset")
			}
			if !tc.wantErr && err != nil {
				t.Fatal(err)
			}
		})
	}
}
