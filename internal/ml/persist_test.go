package ml

import (
	"encoding/json"
	"testing"
)

func TestM5RoundTrip(t *testing.T) {
	d := synthDataset(400, 0.05, 51)
	orig := FitM5(d)
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back M5Tree
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	// Predictions must be bit-identical across the round trip.
	for _, x := range d.X[:50] {
		if orig.Predict(x) != back.Predict(x) {
			t.Fatal("M5 prediction changed across JSON round trip")
		}
	}
	if back.Leaves() != orig.Leaves() || back.Depth() != orig.Depth() {
		t.Error("tree shape changed across round trip")
	}
}

func TestM5UnmarshalRejectsBad(t *testing.T) {
	var tr M5Tree
	for _, bad := range []string{
		`{"names":["a"],"root":null}`,
		`{"names":["a"],"root":{"leaf":true}}`,                                         // leaf without model
		`{"names":["a"],"root":{"feat":5,"left":{"leaf":true},"right":{"leaf":true}}}`, // bad feature
		`not json`,
	} {
		if err := json.Unmarshal([]byte(bad), &tr); err == nil {
			t.Errorf("accepted invalid tree: %s", bad)
		}
	}
}

func TestREPRoundTrip(t *testing.T) {
	d := synthDataset(300, 0.05, 53)
	orig := FitREP(d)
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back REPTree
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for _, x := range d.X[:50] {
		if orig.Predict(x) != back.Predict(x) {
			t.Fatal("REP prediction changed across JSON round trip")
		}
		if orig.Classify(x) != back.Classify(x) {
			t.Fatal("REP classification changed across JSON round trip")
		}
	}
}

func TestREPUnmarshalRejectsBad(t *testing.T) {
	var tr REPTree
	for _, bad := range []string{
		`{"names":["a"],"root":null}`,
		`{"names":["a"],"root":{"feat":2,"left":{"leaf":true},"right":{"leaf":true}}}`,
	} {
		if err := json.Unmarshal([]byte(bad), &tr); err == nil {
			t.Errorf("accepted invalid tree: %s", bad)
		}
	}
}

func TestSVMRoundTrip(t *testing.T) {
	d := NewDataset("x", "y")
	for i := 0; i < 100; i++ {
		label := -1.0
		if i%2 == 0 {
			label = 1
		}
		d.Add([]float64{float64(i), float64(i % 7)}, label)
	}
	orig, err := FitSVM(d)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back SVM
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for _, x := range d.X[:20] {
		if orig.Margin(x) != back.Margin(x) {
			t.Fatal("SVM margin changed across JSON round trip")
		}
	}
}

func TestSVMUnmarshalRejectsBad(t *testing.T) {
	var m SVM
	for _, bad := range []string{
		`{"names":["a","b"],"w":[1],"b":0,"mean":[0,0],"scale":[1,1]}`, // arity
		`{"names":["a"],"w":[1],"b":0,"mean":[0],"scale":[0]}`,         // zero scale
	} {
		if err := json.Unmarshal([]byte(bad), &m); err == nil {
			t.Errorf("accepted invalid SVM: %s", bad)
		}
	}
}
