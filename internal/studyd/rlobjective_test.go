package studyd

import (
	"context"
	"strings"
	"testing"
)

// TestSteerPPORejectsOutOfRangeParams: a steer-ppo trial with lr = 0,
// hidden = 0 or steps = 0 fails, and its journaled error names the
// parameter and its value. Such trials used to train under a default or a
// clamped value while the journal recorded the value they were given.
func TestSteerPPORejectsOutOfRangeParams(t *testing.T) {
	dir := t.TempDir()
	sp := Spec{
		Name: "steer-bounds",
		Params: []ParamSpec{
			{Name: "lr", Type: "intset", Ints: []int{0, 1}},
			{Name: "hidden", Type: "intset", Ints: []int{0, 2}},
			{Name: "steps", Type: "intset", Ints: []int{0, 1}},
		},
		Explorer:  ExplorerSpec{Type: "grid"},
		Metrics:   []MetricSpec{{Name: "return", Direction: "max"}},
		Objective: "steer-ppo",
		Budget:    8,
		Seed:      3,
	}
	d, err := New(Config{Dir: dir, Workers: 2, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	m, err := d.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, StatusDone)
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Read the trials back from the journal, not from the live study.
	d, err = New(Config{Dir: dir, Workers: 1, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	studies := d.Store().List()
	if len(studies) != 1 {
		t.Fatalf("%d studies recovered, want 1", len(studies))
	}
	trials := studies[0].Trials()
	if len(trials) != sp.Budget {
		t.Fatalf("%d trials journaled, want %d", len(trials), sp.Budget)
	}
	for _, tr := range trials {
		want := ""
		for _, name := range []string{"lr", "hidden", "steps"} {
			if tr.Params.Value(name).Int() == 0 {
				want = name + " = 0"
				break
			}
		}
		switch {
		case want == "" && (tr.Err != nil || len(tr.Values) != 1):
			t.Errorf("trial %d %v: valid parameters, got values %v, error %v", tr.ID, tr.Params, tr.Values, tr.Err)
		case want != "" && (tr.Err == nil || !strings.Contains(tr.Err.Error(), want) || len(tr.Values) != 0):
			t.Errorf("trial %d %v: want a failure naming %q, got values %v, error %v", tr.ID, tr.Params, want, tr.Values, tr.Err)
		}
	}
}
