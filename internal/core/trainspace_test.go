package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"repro/internal/hw"
)

// TestTrainFromSpaceMatchesExhaustiveTrain pins TrainFromSpace, which
// searches only the sampled instances, to Train over the full exhaustive
// search: the tuners must encode to the same bytes. It also checks that
// TrainingInstances lists exactly the instances BuildTraining adds, in
// order.
func TestTrainFromSpaceMatchesExhaustiveTrain(t *testing.T) {
	rects := QuickSpace()
	rects.Rects = [][2]int{{700, 1900}, {2700, 500}}
	type tc struct {
		sys    hw.System
		space  Space
		stride int
	}
	var cases []tc
	for _, sys := range hw.Systems() {
		for _, stride := range []int{1, 2, 3} {
			cases = append(cases, tc{sys, QuickSpace(), stride})
		}
	}
	cases = append(cases, tc{hw.I7_2600K(), rects, 2})
	if !testing.Short() {
		cases = append(cases, tc{hw.I7_3820(), DefaultSpace(), 2})
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s/dims=%d/rects=%d/stride=%d", c.sys.Name, len(c.space.Dims), len(c.space.Rects), c.stride)
		t.Run(name, func(t *testing.T) {
			opts := DefaultTrainOptions()
			opts.Stride = c.stride
			sr, err := Exhaustive(c.sys, c.space, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}

			tr, err := BuildTraining(sr, opts)
			if err != nil {
				t.Fatal(err)
			}
			insts := TrainingInstances(c.space, opts)
			if len(insts) != tr.Parallel.Len() {
				t.Fatalf("TrainingInstances lists %d instances, BuildTraining adds %d", len(insts), tr.Parallel.Len())
			}
			for i, inst := range insts {
				want := []float64{float64(inst.Dim), inst.TSize, float64(inst.DSize)}
				if !slices.Equal(tr.Parallel.X[i], want) {
					t.Fatalf("training row %d is %v, TrainingInstances lists %v", i, tr.Parallel.X[i], inst)
				}
			}

			want, err := Train(sr, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := TrainFromSpace(c.sys, c.space, opts)
			if err != nil {
				t.Fatal(err)
			}
			wantData, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			gotData, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotData, wantData) {
				t.Error("TrainFromSpace tuner differs from Train(Exhaustive)")
			}
		})
	}
}

// TestTrainingInstancesCount checks the default stride's sample of the
// two standard spaces: every other dim and tsize, every dsize.
func TestTrainingInstancesCount(t *testing.T) {
	for _, c := range []struct {
		name  string
		space Space
		want  int
	}{{"quick", QuickSpace(), 2 * 3 * 2}, {"default", DefaultSpace(), 3 * 6 * 3}} {
		if got := len(TrainingInstances(c.space, TrainOptions{})); got != c.want {
			t.Errorf("%s space: %d training instances, want %d of %d", c.name, got, c.want, len(c.space.Instances()))
		}
	}
}
