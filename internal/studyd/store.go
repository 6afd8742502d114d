package studyd

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"rldecide/internal/core"
	"rldecide/internal/daemon"
	"rldecide/internal/journal"
	"rldecide/internal/obs/span"
	"rldecide/internal/param"
)

// Status is the lifecycle state of a managed study.
type Status string

// Study lifecycle states.
const (
	// StatusPending: loaded or submitted, not yet scheduled.
	StatusPending Status = "pending"
	// StatusRunning: trials are executing.
	StatusRunning Status = "running"
	// StatusDone: the campaign completed its budget (or exhausted its
	// explorer).
	StatusDone Status = "done"
	// StatusInterrupted: stopped by shutdown/cancel before completing;
	// resumable from the journal.
	StatusInterrupted Status = "interrupted"
	// StatusFailed: the study could not run (bad spec rebuild, journal
	// I/O failure, ...).
	StatusFailed Status = "failed"
)

// ManagedStudy is one study under the daemon's control: its spec, its
// journal, and the finished trials accumulated across every run.
type ManagedStudy struct {
	ID   string
	Spec Spec
	// Tenant is the principal that submitted the study ("" when auth is
	// disabled or the single-token fallback was used).
	Tenant string
	// Daemon names the owning daemon in a sharded deployment ("" for
	// single-daemon stores); Generation counts ownership handoffs.
	Daemon     string
	Generation int

	journalPath string
	// journalMax caps the active journal segment size (0 = unbounded).
	journalMax int64
	// wireSpec is the persisted spec in the form every trial dispatch
	// carries it (see wireForm), so every worker rebuilds the identical
	// objective.
	wireSpec []byte
	// space and metrics are the spec's, built once by Spec.prepare: every
	// run and every ranking of the study reads them.
	space   *param.Space
	metrics []core.Metric
	// spans is the study's bounded span buffer, the store behind
	// GET /studies/{id}/spans; a study that is not traced records none.
	spans *span.Collector
	// journalTimer, when set (by a tracing daemon before run),
	// wraps each trial's journal append so its latency can be recorded as
	// a causal span. Purely observational: do() runs exactly once either
	// way, and the appended bytes are untouched.
	journalTimer func(trial int, do func())

	mu sync.Mutex
	// guarded-by: mu
	status Status
	// guarded-by: mu
	errMsg string
	// guarded-by: mu
	journalErr string
	// guarded-by: mu
	trials []core.Trial
	// guarded-by: mu
	resumed int // trials seeded from the journal at load time
	// guarded-by: mu
	cancel context.CancelFunc
	done   chan struct{}

	// listed and listElem memoize the study's element of the GET /studies
	// body: listElem is the indented encoding of listed, good for as long
	// as the study's summary still equals it. The comparison is the whole
	// invalidation; nothing on the trial, status or adopt paths knows the
	// memo exists. Once listed is of the done study it is final, like
	// frontBody, and is no longer compared. listElem is a string, so a
	// handler may keep reading one after the lock is released.
	// guarded-by: mu
	listed Summary
	// guarded-by: mu
	listElem string

	// frontBody and trialsBody keep the GET /front and /trials bodies of a
	// done study, rendered by its first read of each after done. Done is
	// terminal for a ManagedStudy and its trials never change after it, so
	// unlike listElem they are never compared: nil until kept, and a kept
	// body's bytes are never modified (two first reads may each keep one;
	// the two are equal), so a handler may write one after the lock is
	// released.
	// guarded-by: mu
	frontBody []byte
	// guarded-by: mu
	trialsBody []byte
}

// Status returns the study's current lifecycle state.
func (m *ManagedStudy) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.status
}

// Done is closed when the study's current run finishes (any terminal or
// interrupted state).
func (m *ManagedStudy) Done() <-chan struct{} { return m.done }

// Cancel stops the study's current run, leaving it resumable.
func (m *ManagedStudy) Cancel() {
	m.mu.Lock()
	cancel := m.cancel
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Trials returns the finished trials so far, in ID order.
func (m *ManagedStudy) Trials() []core.Trial {
	out, _ := m.trialsSnapshot()
	return out
}

// trialsSnapshot is Trials, and whether the study was done when they were
// copied — read under the same lock, so a done snapshot is final.
func (m *ManagedStudy) trialsSnapshot() ([]core.Trial, bool) {
	m.mu.Lock()
	out := append([]core.Trial(nil), m.trials...)
	done := m.status == StatusDone
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, done
}

// Summary is the API-facing digest of a managed study.
type Summary struct {
	ID          string `json:"id"`
	Name        string `json:"name"`
	Tenant      string `json:"tenant,omitempty"`
	Daemon      string `json:"daemon,omitempty"`
	Generation  int    `json:"generation,omitempty"`
	Status      Status `json:"status"`
	Error       string `json:"error,omitempty"`
	JournalErr  string `json:"journal_error,omitempty"`
	Objective   string `json:"objective"`
	Explorer    string `json:"explorer"`
	Budget      int    `json:"budget"`
	Finished    int    `json:"finished"`
	Resumed     int    `json:"resumed"`
	Parallelism int    `json:"parallelism"`
	Seed        uint64 `json:"seed"`
}

// Summary returns the study digest.
func (m *ManagedStudy) Summary() Summary {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.summaryLocked()
}

// listElement returns the study's summary as GET /studies lists it
// (daemon.StudyListElem), encoding it only if it changed since the last
// listing, and whether it is final: the summary of the done study. Done
// is terminal, and the run sets a journal error in the same critical
// section as the status, so nothing in a done study's summary changes.
func (m *ManagedStudy) listElement() (elem string, final bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.listElem != "" && m.listed.Status == StatusDone {
		return m.listElem, true
	}
	if sum := m.summaryLocked(); m.listElem == "" || sum != m.listed {
		// A struct of strings and integers always encodes.
		m.listElem, _ = daemon.StudyListElem(sum)
		m.listed = sum
	}
	return m.listElem, m.listed.Status == StatusDone
}

func (m *ManagedStudy) summaryLocked() Summary {
	explorer := m.Spec.Explorer.Type
	if explorer == "" {
		explorer = "random"
	}
	return Summary{
		ID:          m.ID,
		Name:        m.Spec.Name,
		Tenant:      m.Tenant,
		Daemon:      m.Daemon,
		Generation:  m.Generation,
		Status:      m.status,
		Error:       m.errMsg,
		JournalErr:  m.journalErr,
		Objective:   m.Spec.Objective,
		Explorer:    explorer,
		Budget:      m.Spec.Budget,
		Finished:    len(m.trials),
		Resumed:     m.resumed,
		Parallelism: m.Spec.Parallelism,
		Seed:        m.Spec.Seed,
	}
}

// Front is the live decision analysis of a study: successive Pareto fronts
// of completed trials, by trial ID.
type Front struct {
	Metrics []MetricSpec `json:"metrics"`
	// Fronts[0] holds the IDs of the non-dominated trials.
	Fronts [][]int `json:"fronts"`
	// Completed counts the trials the ranking is over.
	Completed int `json:"completed"`
}

// Front ranks the completed trials finished so far with the study's
// Pareto ranker. It is safe to call while the study runs — that is the
// live-inspection feature.
func (m *ManagedStudy) Front() (Front, error) {
	fr, _ := m.front()
	return fr, nil
}

// front is Front, and whether the study was done when its trials were
// filtered — read under the same lock, so a done ranking is final.
func (m *ManagedStudy) front() (Front, bool) {
	// The partition does not depend on input order and each front's IDs
	// are sorted below, so the completed subset is filtered straight out of
	// m.trials (completion order), with no per-request sort, and is m.trials
	// itself when nothing is filtered out: the trials are only ever
	// appended to, never modified, so the first len of them stay as they
	// are after the lock is released.
	m.mu.Lock()
	completed := (&core.Report{Metrics: m.metrics, Trials: m.trials}).Completed()
	done := m.status == StatusDone
	m.mu.Unlock()
	// The ranking's fronts are windows into one n-int index array (the
	// ε-front aside), so each index is turned into its trial's ID in place.
	fronts := core.ParetoRanker{Eps: m.Spec.Eps}.Rank(completed, m.metrics).Fronts
	for _, front := range fronts {
		for j, idx := range front {
			front[j] = completed[idx].ID
		}
		sort.Ints(front)
	}
	if fronts == nil {
		fronts = [][]int{} // "fronts": [], not null
	}
	return Front{Metrics: m.Spec.Metrics, Completed: len(completed), Fronts: fronts}, done
}

// frontJSON returns the GET /front body, daemon.EncodeJSON of Front: the
// kept one, or one rendered now and kept if the ranking was of the done
// study. A body the encoder refused is empty, as WriteJSON writes it, and
// not kept.
func (m *ManagedStudy) frontJSON() ([]byte, error) {
	m.mu.Lock()
	body := m.frontBody
	m.mu.Unlock()
	if body != nil {
		return body, nil
	}
	fr, done := m.front()
	body, err := daemon.EncodeJSON(fr)
	if err == nil && done {
		m.mu.Lock()
		m.frontBody = body
		m.mu.Unlock()
	}
	return body, nil
}

// trialsJSON returns the GET /trials body, {"trials":[...]} with each
// trial as the journal writes it (journal.AppendRecord, so the body decodes
// into []journal.Record): the kept one, or one rendered now and kept if
// the trials were the done study's. A trial the journal cannot encode is
// the error, and nothing is kept.
func (m *ManagedStudy) trialsJSON() ([]byte, error) {
	m.mu.Lock()
	body := m.trialsBody
	m.mu.Unlock()
	if body != nil {
		return body, nil
	}
	trials, done := m.trialsSnapshot()
	body = []byte(`{"trials":[`)
	for i, t := range trials {
		if i > 0 {
			body = append(body, ',')
		}
		var err error
		if body, err = journal.AppendRecord(body, t); err != nil {
			// A NaN or infinite metric: JSON has no spelling for it (the
			// journal refused the trial too, see Summary.JournalErr).
			return nil, fmt.Errorf("trial %d: %w", t.ID, err)
		}
		body = body[:len(body)-1] // the record's newline
	}
	body = append(body, "]}\n"...)
	if done {
		m.mu.Lock()
		m.trialsBody = body
		m.mu.Unlock()
	}
	return body, nil
}

// run executes (or resumes) the study's campaign under ctx, evaluating
// every trial with objective (see objectiveFor) and journaling each
// finished trial. It must be called at most once per daemon lifetime per
// study.
func (m *ManagedStudy) run(ctx context.Context, objective core.Objective) {
	defer close(m.done)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	m.mu.Lock()
	m.cancel = cancel
	m.status = StatusRunning
	// Resume keeps these without a copy, and the run copies them once
	// before its first OnTrial appends to m.trials, which never modifies
	// the first len of them anyway.
	resumed := m.trials
	m.mu.Unlock()

	fail := func(err error) {
		m.mu.Lock()
		m.status = StatusFailed
		m.errMsg = err.Error()
		m.mu.Unlock()
	}

	// Each run gets a fresh explorer (explorers are stateful), which is
	// what makes replay-based resume possible.
	explorer, err := m.Spec.explorer()
	if err != nil {
		fail(err)
		return
	}
	study := &core.Study{
		Space:       m.space,
		Explorer:    explorer,
		Metrics:     m.metrics,
		Ranker:      core.ParetoRanker{Eps: m.Spec.Eps},
		Objective:   objective,
		Parallelism: m.Spec.Parallelism,
		Seed:        m.Spec.Seed,
	}
	if err := study.Resume(resumed); err != nil {
		fail(err)
		return
	}

	jw, err := journal.OpenSegmented(m.journalPath, m.journalMax)
	if err != nil {
		fail(err)
		return
	}
	study.OnTrial = func(t core.Trial) {
		doAppend := func() {
			if err := jw.Append(t); err != nil {
				m.mu.Lock()
				if m.journalErr == "" {
					m.journalErr = err.Error()
				}
				m.mu.Unlock()
			}
		}
		if m.journalTimer != nil {
			m.journalTimer(t.ID, doAppend)
		} else {
			doAppend()
		}
		m.mu.Lock()
		m.trials = append(m.trials, t)
		m.mu.Unlock()
	}

	err = study.RunContext(ctx, m.Spec.Budget)
	closeErr := jw.Close()

	m.mu.Lock()
	defer m.mu.Unlock()
	m.cancel = nil
	switch {
	case err == nil:
		m.status = StatusDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The journal holds everything that finished; the next daemon
		// start resumes from here.
		m.status = StatusInterrupted
	default:
		m.status = StatusFailed
		m.errMsg = err.Error()
	}
	if closeErr != nil && m.journalErr == "" {
		m.journalErr = closeErr.Error()
	}
}

// Store is the daemon's persistent study registry: one <id>.spec.json and
// one <id>.trials.jsonl (plus rotation segments and an ownership
// manifest) per study under dir. In a sharded deployment several daemons
// share one state directory; each Store loads only the studies its owner
// name claims (or unowned legacy studies), and ownership moves between
// daemons through Adopt.
type Store struct {
	dir string
	// owner is this daemon's name; "" is the single-daemon legacy mode
	// that loads everything and mints unprefixed IDs.
	owner string
	// journalMax caps active journal segments for studies run from this
	// store (0 = single-file journals, the legacy layout).
	journalMax int64

	mu sync.Mutex
	// guarded-by: mu
	studies map[string]*ManagedStudy
	// order is every study in submission order. It is only appended to.
	// guarded-by: mu
	order []*ManagedStudy
	// guarded-by: mu
	nextID int

	listMu sync.Mutex
	// listHead is the start of the GET /studies body up to the element of
	// the last study of the leading run of done studies in order: the
	// list's opening, then each one's separator and final element,
	// listed of them. It is only appended to, so a handler may write a
	// prefix of it after the lock is released.
	// guarded-by: listMu
	listHead []byte
	// guarded-by: listMu
	listed int
}

// OpenStore opens (creating if needed) the state directory and loads every
// persisted study this owner may run: the spec is re-read, the journal
// (including rotated segments) is repaired (torn final record truncated)
// and replayed, and studies whose journals hold fewer trials than their
// budget come back StatusInterrupted, ready for resume. Studies whose
// manifest names a different owning daemon are left on disk untouched —
// they belong to another shard until adopted.
func OpenStore(dir, owner string, journalMax int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &Store{dir: dir, owner: owner, journalMax: journalMax, studies: map[string]*ManagedStudy{}, nextID: 1}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	// One listing of the directory serves every study: its IDs, and the
	// files that may be sealed segments of its journal, which a rotation
	// cut short by a crash can have left out of the manifest.
	type minted struct {
		id, minter string // minter is the ID's "<daemon>-" prefix, if any
		counter    int
	}
	var ids []minted
	segFiles := map[string][]string{}
	for _, e := range entries {
		name := e.Name()
		if id, ok := strings.CutSuffix(name, ".spec.json"); ok {
			n, _ := counter(id)
			ids = append(ids, minted{id, id[:strings.LastIndex(id, "-")+1], n})
		} else if i := strings.LastIndex(name, ".trials-"); i >= 0 && strings.HasSuffix(name, ".jsonl") {
			segFiles[name[:i]] = append(segFiles[name[:i]], filepath.Join(dir, name))
		}
	}
	// The IDs one daemon minted in submission order (s9999 before s10000),
	// and, as a restart cannot know when each was adopted, the minters in
	// name order, unprefixed IDs first: s0002, alpha-s0001, beta-s0001.
	slices.SortFunc(ids, func(a, b minted) int {
		return cmp.Or(strings.Compare(a.minter, b.minter), cmp.Compare(a.counter, b.counter), strings.Compare(a.id, b.id))
	})
	for _, s := range ids {
		id := s.id
		mf, _, err := journal.LoadManifest(st.journalPath(id))
		if err != nil {
			return nil, fmt.Errorf("studyd: manifest for study %s: %w", id, err)
		}
		// Another daemon's study is left on disk until adopted; an unowned
		// one (no manifest, or the legacy layout) is anyone's.
		if mf.Daemon != "" && st.owner != "" && mf.Daemon != st.owner {
			continue
		}
		m, err := st.load(id, mf, journal.Segments(st.journalPath(id), mf, segFiles[id]))
		if err != nil {
			return nil, fmt.Errorf("studyd: loading study %s: %w", id, err)
		}
		st.studies[id] = m
		st.order = append(st.order, m)
		st.bumpNext(id)
	}
	return st, nil
}

func (st *Store) journalPath(id string) string {
	return filepath.Join(st.dir, id+".trials.jsonl")
}

// bumpNext advances the ID counter past an observed study ID so freshly
// minted IDs never collide. IDs are s%04d, optionally prefixed with the
// minting daemon's name (alpha-s0001); the trailing segment carries the
// counter.
func (st *Store) bumpNext(id string) {
	if n, ok := counter(id); ok {
		st.mu.Lock()
		if n >= st.nextID {
			st.nextID = n + 1
		}
		st.mu.Unlock()
	}
}

// counter returns the ID counter a study ID was minted with.
func counter(id string) (int, bool) {
	tail := id
	if i := strings.LastIndex(id, "-"); i >= 0 {
		tail = id[i+1:]
	}
	var n int
	_, err := fmt.Sscanf(tail, "s%d", &n)
	return n, err == nil
}

// wireForm returns a persisted spec exactly as encoding/json sends it
// inside a TrialRequest (a RawMessage is compacted and HTML-escaped on the
// way out, and that form encodes to itself). Dispatching and hashing this
// form — not the indented file — is what makes the bytes a worker receives
// the bytes TrialRequest.SpecHash was taken over, which the worker and the
// evaluator both check before caching anything under the hash.
func wireForm(persisted []byte) ([]byte, error) {
	return json.Marshal(json.RawMessage(persisted))
}

// newStudy is the one constructor of a ManagedStudy: a prepared spec, its
// persisted wire form, its manifest (zero for a single-daemon study
// submitted anonymously) and the trials its journal already holds. It is
// pending, or done when those trials fill the budget.
func (st *Store) newStudy(id string, spec Spec, p *prepared, wire []byte, mf journal.Manifest, trials []core.Trial) *ManagedStudy {
	status := StatusPending
	if len(trials) >= spec.Budget {
		status = StatusDone
	}
	m := &ManagedStudy{
		ID:          id,
		Spec:        spec,
		Tenant:      mf.Tenant,
		Daemon:      mf.Daemon,
		Generation:  mf.Generation,
		journalPath: st.journalPath(id),
		journalMax:  st.journalMax,
		wireSpec:    wire,
		space:       p.space,
		metrics:     p.metrics,
		spans:       span.NewCollector(0),
		status:      status,
		trials:      trials,
		resumed:     len(trials),
		done:        make(chan struct{}),
	}
	if status == StatusDone {
		close(m.done)
	}
	return m
}

// load reads a study back from its spec and its journal, whose manifest
// (zero if there is none) and sealed segments the caller has read.
func (st *Store) load(id string, mf journal.Manifest, segs []string) (*ManagedStudy, error) {
	raw, err := os.ReadFile(filepath.Join(st.dir, id+".spec.json"))
	if err != nil {
		return nil, err
	}
	var spec Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, err
	}
	p, err := spec.prepare()
	if err != nil {
		return nil, err
	}
	wire, err := wireForm(raw)
	if err != nil {
		return nil, err
	}
	// Crash safety: a torn final record (append cut short by the crash)
	// is truncated away so the journal is clean for both replay and the
	// appends of the resumed run. Sealed rotation segments replay first.
	trials, err := journal.RecoverSegments(st.journalPath(id), segs, p.space)
	if err != nil {
		return nil, err
	}
	return st.newStudy(id, spec, p, wire, mf, trials), nil
}

// Submit validates and persists a new study spec and registers it as
// pending. The caller (the daemon) schedules it. Owned stores prefix the
// study ID with the daemon name (alpha-s0001) so IDs stay unique across a
// fleet sharing one state directory, and persist an ownership manifest
// next to the journal.
func (st *Store) Submit(spec Spec, tenant string) (*ManagedStudy, error) {
	p, err := spec.prepare()
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	id := fmt.Sprintf("s%04d", st.nextID)
	if st.owner != "" {
		id = fmt.Sprintf("%s-s%04d", st.owner, st.nextID)
	}
	st.nextID++
	st.mu.Unlock()

	raw, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(st.dir, id+".spec.json"), raw, 0o644); err != nil {
		return nil, err
	}
	wire, err := wireForm(raw)
	if err != nil {
		return nil, err
	}
	mf := journal.Manifest{Study: id, Daemon: st.owner, Tenant: tenant}
	if st.owner != "" || tenant != "" {
		mf.Generation = 1
		if err := journal.SaveManifest(st.journalPath(id), mf); err != nil {
			return nil, err
		}
	}
	m := st.newStudy(id, spec, p, wire, mf, nil)
	st.mu.Lock()
	st.studies[id] = m
	st.order = append(st.order, m)
	st.mu.Unlock()
	return m, nil
}

// Adopt moves ownership of an on-disk study to this store's daemon: the
// manifest is rewritten with this owner and a bumped generation, the
// journal (segments included) is repaired and replayed, and the study
// registers here ready to resume. Already-loaded studies return as-is
// with fresh=false. The old owner must be dead or drained — nothing
// fences a live owner's appends (see docs/sharding.md).
func (st *Store) Adopt(id string) (m *ManagedStudy, fresh bool, err error) {
	st.mu.Lock()
	existing, ok := st.studies[id]
	st.mu.Unlock()
	if ok {
		return existing, false, nil
	}
	if _, err := os.Stat(filepath.Join(st.dir, id+".spec.json")); err != nil {
		return nil, false, fmt.Errorf("studyd: no study %q on disk: %w", id, err)
	}
	jp := st.journalPath(id)
	mf, _, err := journal.LoadManifest(jp)
	if err != nil {
		return nil, false, err
	}
	mf.Study = id
	mf.Daemon = st.owner
	mf.Generation++
	if err := journal.SaveManifest(jp, mf); err != nil {
		return nil, false, err
	}
	segs, err := journal.SegmentFiles(jp)
	if err != nil {
		return nil, false, err
	}
	m, err = st.load(id, mf, segs)
	if err != nil {
		return nil, false, err
	}
	st.mu.Lock()
	if raced, ok := st.studies[id]; ok {
		st.mu.Unlock()
		return raced, false, nil
	}
	st.studies[id] = m
	st.order = append(st.order, m)
	st.mu.Unlock()
	st.bumpNext(id)
	return m, true, nil
}

// ActiveByTenant counts pending/running studies per tenant — the
// occupancy the per-tenant slot quotas bound.
func (st *Store) ActiveByTenant() map[string]int {
	out := map[string]int{}
	for _, m := range st.List() {
		if s := m.Status(); s == StatusPending || s == StatusRunning {
			out[m.Tenant]++
		}
	}
	return out
}

// Get returns the study with the given ID.
func (st *Store) Get(id string) (*ManagedStudy, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	m, ok := st.studies[id]
	return m, ok
}

// List returns all studies in submission order.
func (st *Store) List() []*ManagedStudy {
	st.mu.Lock()
	defer st.mu.Unlock()
	return slices.Clone(st.order)
}

// listBody returns the GET /studies body, daemon.WriteStudyList's of the
// studies' list elements, in two parts: the kept bytes up to the last
// study of the leading run of done studies, which each listing extends by
// the studies that joined the run since the last, and the rest.
func (st *Store) listBody() (head, tail []byte) {
	st.mu.Lock()
	studies := st.order[:len(st.order):len(st.order)] // only ever appended to
	st.mu.Unlock()
	if len(studies) == 0 {
		return []byte(daemon.StudyListEmpty), nil
	}
	st.listMu.Lock()
	if st.listHead == nil {
		st.listHead = []byte(daemon.StudyListOpen)
	}
	for ; st.listed < len(studies); st.listed++ {
		elem, final := studies[st.listed].listElement()
		if !final {
			break
		}
		st.listHead = daemon.AppendStudyListElem(st.listHead, st.listed, elem)
	}
	head, listed := st.listHead, st.listed
	st.listMu.Unlock()
	for i := listed; i < len(studies); i++ {
		elem, _ := studies[i].listElement()
		tail = daemon.AppendStudyListElem(tail, i, elem)
	}
	return head, append(tail, daemon.StudyListClose...)
}

// Resumable returns the loaded studies that still have budget left and are
// not yet scheduled — the set a starting daemon must resume.
func (st *Store) Resumable() []*ManagedStudy {
	var out []*ManagedStudy
	for _, m := range st.List() {
		if m.Status() == StatusPending {
			out = append(out, m)
		}
	}
	return out
}
