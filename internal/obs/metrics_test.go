package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// TestExpositionGolden pins the exact Prometheus text-format output for
// one of every instrument kind: family order (sorted by name), HELP/TYPE
// lines, cumulative histogram buckets with the implicit +Inf, and label
// rendering.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_events_total", "Events seen.")
	r.NewGaugeFunc("test_queue_depth", "Queue depth.", func() []Sample { return []Sample{{Value: 3}} })
	h := r.NewHistogram("test_latency_seconds", "Latency.", []float64{0.1, 1})
	r.NewGaugeFunc("test_worker_slots", "Worker slots.", func() []Sample {
		return []Sample{
			{Labels: [][2]string{{"worker", "w1"}}, Value: 4},
			{Labels: [][2]string{{"worker", "w2"}}, Value: 2},
		}
	})

	c.Add(3)
	c.Inc()
	h.Observe(0.0625)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_events_total Events seen.
# TYPE test_events_total counter
test_events_total 4
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 1
test_latency_seconds_bucket{le="1"} 2
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 5.5625
test_latency_seconds_count 3
# HELP test_queue_depth Queue depth.
# TYPE test_queue_depth gauge
test_queue_depth 3
# HELP test_worker_slots Worker slots.
# TYPE test_worker_slots gauge
test_worker_slots{worker="w1"} 4
test_worker_slots{worker="w2"} 2
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("test_a_total", "A.").Inc()
	r2 := NewRegistry()
	r2.NewGaugeFunc("test_b", "B.", func() []Sample { return []Sample{{Value: 2}} })

	srv := httptest.NewServer(Handler(r, nil, r2))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = res.Body.Close() }()
	if res.StatusCode != 200 {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content-type = %q", ct)
	}
	buf := make([]byte, 4096)
	n, _ := res.Body.Read(buf)
	body := string(buf[:n])
	for _, series := range []string{"test_a_total 1", "test_b 2"} {
		if !strings.Contains(body, series) {
			t.Errorf("body missing %q:\n%s", series, body)
		}
	}

	post, err := srv.Client().Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = post.Body.Close()
	if post.StatusCode != 405 {
		t.Errorf("POST status = %d, want 405", post.StatusCode)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewCounter("dup_total", "second")
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.NewGaugeFunc("test_esc", "Escaping.", func() []Sample {
		return []Sample{{Labels: [][2]string{{"v", "a\"b\\c\nd"}}, Value: 1}}
	})
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `test_esc{v="a\"b\\c\nd"} 1`) {
		t.Errorf("bad escaping:\n%s", sb.String())
	}
}

func TestHistogramBoundsValidation(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds did not panic")
		}
	}()
	r.NewHistogram("bad_hist", "x", []float64{1, 1})
}
