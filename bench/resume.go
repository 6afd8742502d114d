package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"rldecide/internal/studyd"
)

// crashedDir is resume_replay's set-up product: a state directory as a
// kill -9 leaves it — every journal cut back to its first ResumeKeep
// records, every TornEvery-th with half a record after them — and the
// canonical journal each study must have again once resumed.
type crashedDir struct {
	dir  string
	ids  []string // submission order
	want map[string][]byte
}

func (c *crashedDir) remove() { _ = os.RemoveAll(c.dir) } // best effort, under the run's temp dir

func localConfig(r *run, dir string) studyd.Config {
	return studyd.Config{Dir: dir, Workers: r.nproc, Logf: discard}
}

// shutdown drains a daemon the harness is done with. A missed drain
// deadline only matters to a daemon that restarts from its directory; these
// are done or discarded.
func shutdown(d *studyd.Daemon) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.Shutdown(ctx)
}

// buildCrashed runs the studies to done on a local daemon, keeps their
// canonical journals, shuts the daemon down and tears the journals.
func buildCrashed(r *run) (*crashedDir, error) {
	dir, err := os.MkdirTemp("", "rlbench-crash-*")
	if err != nil {
		return nil, err
	}
	c := &crashedDir{dir: dir, want: map[string][]byte{}}
	err = func() error {
		d, err := studyd.New(localConfig(r, dir))
		if err != nil {
			return err
		}
		d.Start()
		defer shutdown(d)
		var studies []*studyd.ManagedStudy
		for i := 0; i < r.sz.ResumeStudies; i++ {
			m, err := d.Submit(sphereSpec(r.seed, i, fmt.Sprintf("resume-%d", i), r.sz.ResumeBudget, 1))
			if err != nil {
				return err
			}
			studies = append(studies, m)
		}
		for _, m := range studies {
			select {
			case <-m.Done():
			case <-time.After(r.sz.OpDeadline):
				return fmt.Errorf("set-up study %s not done within %s", m.ID, r.sz.OpDeadline)
			}
			if st := m.Status(); st != studyd.StatusDone {
				return fmt.Errorf("set-up study %s is %s", m.ID, st)
			}
			c.ids = append(c.ids, m.ID)
			if c.want[m.ID], err = canonical(m); err != nil {
				return err
			}
		}
		return nil
	}()
	if err != nil {
		c.remove()
		return nil, err
	}
	for i, id := range c.ids {
		if err := tear(filepath.Join(dir, id+".trials.jsonl"), r.sz.ResumeKeep, i%r.sz.TornEvery == 0); err != nil {
			c.remove()
			return nil, err
		}
	}
	return c, nil
}

// tear cuts the journal at path back to its first keep lines and, when
// torn, leaves the first half of the next line after them.
func tear(path string, keep int, torn bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	end := 0
	for n := 0; n < keep; n++ {
		nl := bytes.IndexByte(raw[end:], '\n')
		if nl < 0 {
			return fmt.Errorf("%s has fewer than %d records", path, keep)
		}
		end += nl + 1
	}
	out := raw[:end:end]
	if torn {
		nl := bytes.IndexByte(raw[end:], '\n')
		if nl < 0 {
			return fmt.Errorf("%s has no record after the first %d", path, keep)
		}
		out = append(out, raw[end:end+nl/2]...)
	}
	return os.WriteFile(path, out, 0o644)
}

// copyDir copies the regular files of src into a fresh temp directory.
func copyDir(src string) (string, error) {
	dst, err := os.MkdirTemp("", "rlbench-resume-*")
	if err != nil {
		return "", err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return dst, err
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return dst, err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// resumeReplay: the recovery path. Each repeat opens a fresh copy of the
// crashed directory (journal repair + replay) and resumes every study to
// done (explorer replay + the missing trials).
func resumeReplay(r *run) error {
	crashed, err := setup(r, func() (*crashedDir, error) { return buildCrashed(r) }, (*crashedDir).remove)
	if err != nil {
		return err
	}
	defer crashed.remove()

	// A repeat is a window: its work is the trials made done again per
	// second of recovery, replayed from the journal and re-run, over open +
	// resume.
	var repeats []window
	start := now()
	for rep := 0; rep == 0 || now()-start < r.seconds; rep++ {
		err := func() error {
			dir, err := copyDir(crashed.dir)
			defer os.RemoveAll(dir)
			if err != nil {
				return err
			}
			trace := fmt.Sprintf("repeat-%d", rep)
			t0 := now()
			var d *studyd.Daemon
			rec := r.rec.timed("studyd", "open", trace, func() { d, err = studyd.New(localConfig(r, dir)) })
			r.op(err)
			if err != nil {
				return nil
			}
			defer shutdown(d)
			studies := d.Store().List()
			r.check(len(studies) == len(crashed.want), "recovered %d studies, want %d", len(studies), len(crashed.want))
			w := newWindow()
			perStudy := make([]float64, len(studies))
			trials := 0
			var hung error
			res := r.rec.timed("studyd", "resume", trace, func() {
				d.Start()
				var wg sync.WaitGroup
				for i, m := range studies {
					wg.Add(1)
					go func() {
						defer wg.Done()
						select {
						case <-m.Done():
							perStudy[i] = ms(now() - t0)
						case <-time.After(r.sz.OpDeadline):
						}
					}()
				}
				wg.Wait()
			})
			for i, m := range studies {
				switch {
				case perStudy[i] <= 0:
					hung = fmt.Errorf("resumed study %s not done within %s (hang guard)", m.ID, r.sz.OpDeadline)
					r.op(hung)
				case m.Status() != studyd.StatusDone:
					r.op(fmt.Errorf("resumed study %s is %s", m.ID, m.Status()))
				default:
					r.op(nil)
					w.lat["study"] = append(w.lat["study"], perStudy[i])
					got, err := canonical(m)
					if err != nil {
						return err
					}
					r.check(bytes.Equal(got, crashed.want[m.ID]), "resumed journal of %s differs from its uninterrupted reference", m.ID)
					trials += m.Spec.Budget
				}
			}
			if hung != nil {
				return nil
			}
			w.rate["trials"] = float64(trials) / (rec + res).Seconds()
			w.lat["recover"] = []float64{ms(rec)}
			w.lat["resume"] = []float64{ms(res)}
			// The owner's first read after a restart: the front, straight
			// off the daemon (this workload has no HTTP in it).
			for i := 0; i < min(r.sz.FrontSample, len(studies)); i++ {
				d := r.rec.timed("studyd", "front-call", studies[i].ID, func() { _, err = studies[i].Front() })
				r.op(err)
				w.lat["front"] = append(w.lat["front"], ms(d))
			}
			repeats = append(repeats, w)
			if r.rec != nil && rep == 0 {
				r.probeJournal(dir, studies)
			}
			return nil
		}()
		if err != nil {
			return err
		}
		// Each repeat starts from a collected heap, as a restarted daemon
		// does; it also keeps the previous repeat's garbage out of this
		// one's timings and out of peak_rss_mb.
		runtime.GC()
	}
	if len(repeats) == 0 {
		return fmt.Errorf("resume_replay: no repeat completed")
	}
	ws := quiet(repeats, "trials")
	r.set("trials_per_s", rateOf(ws, "trials"), "1/s")
	r.set("study_done_ms_p50", median(latOf(ws, "study")), "ms")
	r.set("front_ms_p50", median(latOf(ws, "front")), "ms")
	r.setLocal("study_done_ms_p95", quantile(latOf(repeats, "study"), 0.95), "ms")
	r.setLocal("front_ms_p90", quantile(latOf(repeats, "front"), 0.90), "ms")
	r.setLocal("recover_s", median(latOf(ws, "recover"))/1e3, "s")
	r.setLocal("resume_done_s", median(latOf(ws, "resume"))/1e3, "s")
	return nil
}
