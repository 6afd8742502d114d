package shard

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"rldecide/internal/obs/span"
	"rldecide/internal/studyd"
)

// spanTree mirrors the studyd.SpanTree wire shape for decoding through
// the router.
type spanTree struct {
	Study string       `json:"study"`
	Trace string       `json:"trace,omitempty"`
	Count int          `json:"count"`
	Spans []*span.Node `json:"spans"`
}

// TestRouterSpanTreeMerge is the fleet-wide tracing acceptance check at
// the routing layer: a study submitted through the router and executed by
// a span-recording daemon serves, via the router, one tree whose router
// placement span, daemon-side scheduling spans, and objective spans all
// share the deterministically derived trace ID.
func TestRouterSpanTreeMerge(t *testing.T) {
	d, err := studyd.New(studyd.Config{Dir: t.TempDir(), Name: "alpha", Workers: 4, Trace: true, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	tsB := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		tsB.Close()
		_ = d.Shutdown(context.Background())
	})
	_, tsR := newRouter(t, Config{Backends: []Backend{{Name: "alpha", URL: tsB.URL}}})

	spec := shardSpec("sphere")
	spec.Budget = 4
	resp := postSpec(t, tsR.URL+"/studies", "", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	var sum studyd.Summary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, m := range d.Store().List() {
		waitStatus(t, m, studyd.StatusDone)
	}

	var tree spanTree
	if err := json.Unmarshal(mustGet(t, tsR.URL+"/studies/"+sum.ID+"/spans"), &tree); err != nil {
		t.Fatal(err)
	}
	if want := span.DeriveTrace(sum.ID); tree.Trace != want {
		t.Fatalf("trace %q, want derived %q", tree.Trace, want)
	}
	spans := span.Flatten(tree.Spans)
	if tree.Count != len(spans) {
		t.Fatalf("count %d vs %d flattened spans", tree.Count, len(spans))
	}
	counts := map[string]int{}
	for _, sp := range spans {
		if sp.Trace != tree.Trace {
			t.Fatalf("span %q carries foreign trace %q", sp.ID, sp.Trace)
		}
		counts[sp.Name]++
		if sp.Name == span.NamePlace && sp.Daemon != "alpha" {
			t.Fatalf("place span not attributed to the backend: %+v", sp)
		}
	}
	if counts[span.NamePlace] != 1 || counts[span.NameStudy] != 1 {
		t.Fatalf("placement/root spans wrong: %v", counts)
	}
	if counts[span.NameTrial] != spec.Budget || counts[span.NameObjective] != spec.Budget {
		t.Fatalf("daemon spans do not cover the budget: %v", counts)
	}
	// The router's place span must have spliced UNDER the daemon's study
	// root — same derived parent, zero coordination.
	if len(tree.Spans) != 1 || tree.Spans[0].Name != span.NameStudy {
		t.Fatalf("expected the study root as the single tree root, got %+v", tree.Spans)
	}
	foundPlace := false
	for _, c := range tree.Spans[0].Children {
		if c.Name == span.NamePlace {
			foundPlace = true
		}
	}
	if !foundPlace {
		t.Fatalf("place span did not splice under the study root")
	}
}

// TestMergeEscapedLabels pins satellite (3) at the rollup layer: daemon
// and worker names containing backslashes, newlines, and quotes survive
// the router's exposition merger — injected daemon labels and
// pre-escaped worker labels both unquote back to the original names.
func TestMergeEscapedLabels(t *testing.T) {
	hostile := []string{`back\slash`, "new\nline", `quo"ted`}
	for _, name := range hostile {
		// The backend exposes a worker label already escaped per the
		// exposition format (as internal/obs writes it).
		escaped := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`).Replace(name)
		text := "# HELP rldecide_fleet_worker_slots Slots.\n# TYPE rldecide_fleet_worker_slots gauge\n" +
			`rldecide_fleet_worker_slots{worker="` + escaped + `"} 2` + "\n"
		out := merge(t, Exposition{Daemon: name, Text: text})

		// Every sample line must still be one line.
		var sample string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "rldecide_fleet_worker_slots{") {
				if sample != "" {
					t.Fatalf("sample torn across lines for %q:\n%s", name, out)
				}
				sample = line
			}
		}
		if sample == "" {
			t.Fatalf("sample lost for %q:\n%s", name, out)
		}
		// The injected daemon label is Go-quoted, which is exposition
		// compatible for \\, \n, \" — unquote must recover the raw name.
		start := strings.Index(sample, `daemon=`) + len(`daemon=`)
		end := strings.Index(sample[start:], `,worker=`)
		if start < len(`daemon=`) || end < 0 {
			t.Fatalf("cannot locate daemon label in %q", sample)
		}
		got, err := strconv.Unquote(sample[start : start+end])
		if err != nil {
			t.Fatalf("daemon label %q does not unquote: %v", sample[start:start+end], err)
		}
		if got != name {
			t.Fatalf("daemon %q round-tripped to %q", name, got)
		}
		// The worker label must pass through byte-identical.
		if !strings.Contains(sample, `worker="`+escaped+`"`) {
			t.Fatalf("worker label mangled for %q: %s", name, sample)
		}
	}
}
