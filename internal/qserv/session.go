package qserv

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/openql"
)

// ErrUnknownSession distinguishes lookups of unknown (or expired)
// sessions — HTTP 404 — from invalid inputs (HTTP 400).
var ErrUnknownSession = errors.New("qserv: unknown session")

// Session pins one eagerly compiled — typically parameterised — artefact
// so a variational optimiser can stream parameter bindings against it.
// Each bind is a cheap sub-job through the session backend's ordinary
// queue and worker pool: the worker patches the pinned artefact's bind
// table (O(#symbols), never re-entering the compiler) and executes the
// bound copy. The artefact itself lives in the shared full-artefact
// cache, keyed by the program's symbolic content hash, so every session
// on — and every binding of — one ansatz shares a single cache entry per
// level.
type Session struct {
	// ID names the session ("sess-N").
	ID string

	pool      *backendPool
	stack     *core.Stack
	compiled  *openql.Compiled
	numQubits int
	symbols   []string
	name      string
	shots     int
	passes    string
	hit       bool
	created   time.Time

	mu       sync.Mutex
	lastUsed time.Time
	binds    uint64
}

// Symbols returns the sorted free parameters of the pinned artefact
// (empty for a concrete program).
func (ss *Session) Symbols() []string { return append([]string(nil), ss.symbols...) }

// Backend returns the name of the backend the session is pinned to.
func (ss *Session) Backend() string { return ss.pool.b.Name() }

func (ss *Session) usage() (lastUsed time.Time, binds uint64) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.lastUsed, ss.binds
}

// BindRequest is one parameter binding streamed into a session. Values
// must bind every free symbol of the session's artefact exactly (and be
// empty for a concrete program).
type BindRequest struct {
	// Name labels the bind job in views and logs; optional.
	Name string
	// Values maps each free symbol to its angle.
	Values map[string]float64
	// Shots overrides the session's per-bind shot count when positive.
	Shots int
	// Seed pins the bind's random seed; 0 derives a fresh deterministic
	// seed, distinct per bind.
	Seed int64
}

// OpenSession eagerly compiles the request's gate program — symbolic
// parameters preserved — and pins the artefact for streaming binds. The
// request validates and routes exactly like Submit (backend, passes,
// device and calibration overrides all apply), must carry a gate
// payload, and compiles through the shared caches: opening a second
// session on the same program is a cache hit, not a recompile. Idle
// sessions expire after Config.SessionTTL; opening beyond
// Config.MaxSessions evicts the least-recently-used session.
func (s *Service) OpenSession(req Request) (*Session, error) {
	if req.QUBO != nil {
		return nil, errors.New("qserv: sessions pin gate programs; QUBO payloads have no parameters to bind")
	}
	pool, err := s.resolve(&req)
	if err != nil {
		return nil, err
	}
	sb, ok := pool.b.(SessionBackend)
	if !ok {
		return nil, fmt.Errorf("qserv: backend %q does not support sessions", pool.b.Name())
	}

	// Compile outside the service lock: an eager compile can be slow and
	// must not stall Submit. The shared cache deduplicates concurrent
	// opens of the same program.
	stack, p, compiled, hit, err := sb.CompileForSession(&req, s.env)
	if err != nil {
		return nil, err
	}

	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.acceptingLocked(); err != nil {
		return nil, err
	}
	s.sweepSessionsLocked(now)
	if s.cfg.MaxSessions > 0 {
		for len(s.sessions) >= s.cfg.MaxSessions {
			s.evictLRUSessionLocked()
		}
	}
	id, _ := s.nextID("sess")
	sess := &Session{
		ID:        id,
		pool:      pool,
		stack:     stack,
		compiled:  compiled,
		numQubits: p.NumQubits,
		symbols:   compiled.Symbols(),
		name:      req.Name,
		shots:     req.Shots,
		passes:    req.Passes,
		hit:       hit,
		created:   now,
		lastUsed:  now,
	}
	s.sessions[sess.ID] = sess
	if s.met != nil {
		s.met.sessionsOpened.Inc()
	}
	s.log.Info("session opened",
		"session", sess.ID, "backend", pool.b.Name(), "name", req.Name,
		"symbols", len(sess.symbols), "compile_cache_hit", hit)
	return sess, nil
}

// BindSession checks the values against the session's free symbols,
// then admits the bind as a bind-and-run sub-job on the session's
// backend lane (see admit). Malformed value sets are rejected here, at
// submit time.
func (s *Service) BindSession(id string, breq BindRequest) (*Job, error) {
	s.mu.Lock()
	s.sweepSessionsLocked(time.Now())
	sess, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownSession, id)
	}
	// Strict symbol check up front: every free symbol bound, no strays.
	if len(breq.Values) != len(sess.symbols) {
		return nil, fmt.Errorf("qserv: session %s binds %d symbols %v, got %d values",
			id, len(sess.symbols), sess.symbols, len(breq.Values))
	}
	for _, sym := range sess.symbols {
		if _, ok := breq.Values[sym]; !ok {
			return nil, fmt.Errorf("qserv: session %s: missing value for symbol %q", id, sym)
		}
	}
	shots := breq.Shots
	if shots <= 0 {
		shots = sess.shots
	}
	return s.admit(&Job{
		Req: Request{
			Name:    breq.Name,
			Backend: sess.pool.b.Name(),
			Passes:  sess.passes,
			Shots:   shots,
			Seed:    breq.Seed,
		},
		pool:     sess.pool,
		seed:     breq.Seed,
		sess:     sess,
		bindVals: breq.Values,
	})
}

// bindAndRun is the plan of a bind sub-job: an O(#symbols) patch of the
// session's pinned artefact under a "bind" span — the fast path that
// replaces the compile phase — then ordinary execution. The bound copy
// shares the pinned artefact's schedule, mapping and report, so per-bind
// work is proportional to the patched slots, not the circuit. A
// successful bind reports a full-artefact hit: the compile pipeline was
// skipped, so the worker counts it as a full-level skip and records no
// pass metrics for it.
func (s *Service) bindAndRun(job *Job, env *CompileEnv) (*Result, bool, error) {
	sess := job.sess
	span := env.span()
	bspan := span.StartChild("bind")
	bindStart := time.Now()
	bound, err := sess.compiled.BindArtefact(job.bindVals)
	bindDur := time.Since(bindStart)
	if err != nil {
		bspan.SetAttr("error", err.Error())
		bspan.End()
		return nil, false, err
	}
	bspan.SetAttr("session", sess.ID)
	bspan.SetAttr("symbols", strconv.Itoa(len(job.bindVals)))
	bspan.End()
	if s.met != nil {
		s.met.bindSecs.ObserveSeconds(bindDur.Nanoseconds())
	}
	rep, err := executeCompiled(sess.stack, bound, sess.numQubits, job.Req.Shots, job.seed, span)
	if err != nil {
		return nil, false, err
	}
	return &Result{Report: rep}, true, nil
}

// CloseSession unpins a session; in-flight binds finish normally (they
// hold their own reference to the pinned artefact). Closing an unknown
// or expired session returns ErrUnknownSession.
func (s *Service) CloseSession(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[id]; !ok {
		return fmt.Errorf("%w %q", ErrUnknownSession, id)
	}
	delete(s.sessions, id)
	s.log.Info("session closed", "session", id)
	return nil
}

// Session looks up an open session by ID.
func (s *Service) Session(id string) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepSessionsLocked(time.Now())
	ss, ok := s.sessions[id]
	return ss, ok
}

// Sessions lists the open sessions, oldest first.
func (s *Service) Sessions() []*Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepSessionsLocked(time.Now())
	out := make([]*Session, 0, len(s.sessions))
	for _, ss := range s.sessions {
		out = append(out, ss)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].created.Before(out[j].created) })
	return out
}

// sweepSessionsLocked drops sessions idle past Config.SessionTTL.
// Expiry is lazy — checked on every session-store access — so no
// background timer is needed and tests stay deterministic.
func (s *Service) sweepSessionsLocked(now time.Time) {
	if s.cfg.SessionTTL <= 0 {
		return
	}
	// Sweep in sorted id order so the expiry log lines come out in a
	// reproducible sequence.
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		lastUsed, _ := s.sessions[id].usage()
		if now.Sub(lastUsed) > s.cfg.SessionTTL {
			delete(s.sessions, id)
			if s.met != nil {
				s.met.sessionsExpired.Inc()
			}
			s.log.Info("session expired", "session", id, "idle", now.Sub(lastUsed).String())
		}
	}
}

// evictLRUSessionLocked drops the least-recently-used session to make
// room for a new one.
func (s *Service) evictLRUSessionLocked() {
	var victim string
	var oldest time.Time
	//qlint:nondeterministic-ok order-independent: strict lastUsed ordering with lowest-id tie-break yields one victim regardless of iteration order
	for id, ss := range s.sessions {
		lastUsed, _ := ss.usage()
		// Tie-break equal timestamps on the id so the evicted session does
		// not depend on map iteration order.
		if victim == "" || lastUsed.Before(oldest) || (lastUsed.Equal(oldest) && id < victim) {
			victim, oldest = id, lastUsed
		}
	}
	if victim == "" {
		return
	}
	delete(s.sessions, victim)
	if s.met != nil {
		s.met.sessionsEvicted.Inc()
	}
	s.log.Info("session evicted", "session", victim)
}

// SessionView is the JSON rendering of a session for the HTTP API.
type SessionView struct {
	ID      string `json:"id"`
	Name    string `json:"name,omitempty"`
	Backend string `json:"backend"`
	// Symbols are the free parameters every bind must supply.
	Symbols    []string `json:"symbols,omitempty"`
	Parametric bool     `json:"parametric"`
	// CompileCacheHit reports whether the eager compile reused a shared
	// full-artefact cache entry.
	CompileCacheHit bool      `json:"compile_cache_hit"`
	Binds           uint64    `json:"binds"`
	Shots           int       `json:"shots"`
	Passes          string    `json:"passes,omitempty"`
	CreatedAt       time.Time `json:"created_at"`
	LastUsedAt      time.Time `json:"last_used_at"`
	// ExpiresAt is when the session lapses if no further bind arrives
	// (absent when expiry is disabled).
	ExpiresAt *time.Time `json:"expires_at,omitempty"`
}

func (s *Service) viewSession(ss *Session) SessionView {
	lastUsed, binds := ss.usage()
	v := SessionView{
		ID:              ss.ID,
		Name:            ss.name,
		Backend:         ss.pool.b.Name(),
		Symbols:         ss.Symbols(),
		Parametric:      len(ss.symbols) > 0,
		CompileCacheHit: ss.hit,
		Binds:           binds,
		Shots:           ss.shots,
		Passes:          ss.passes,
		CreatedAt:       ss.created,
		LastUsedAt:      lastUsed,
	}
	if s.cfg.SessionTTL > 0 {
		exp := lastUsed.Add(s.cfg.SessionTTL)
		v.ExpiresAt = &exp
	}
	return v
}

// BindJSON is the JSON body of POST /sessions/{id}/bind.
type BindJSON struct {
	Name   string             `json:"name,omitempty"`
	Values map[string]float64 `json:"values"`
	Shots  int                `json:"shots,omitempty"`
	Seed   int64              `json:"seed,omitempty"`
}

func (s *Service) handleOpenSession(w http.ResponseWriter, r *http.Request) {
	var sr SubmitRequest
	if !decodeJSON(w, r, &sr) {
		return
	}
	req, err := sr.request()
	var sess *Session
	if err == nil {
		sess, err = s.OpenSession(req)
	}
	if err != nil {
		writeAdmitError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, s.viewSession(sess))
}

func (s *Service) handleSessions(w http.ResponseWriter, r *http.Request) {
	sessions := s.Sessions()
	views := make([]SessionView, 0, len(sessions))
	for _, ss := range sessions {
		views = append(views, s.viewSession(ss))
	}
	writeJSON(w, http.StatusOK, map[string][]SessionView{"sessions": views})
}

func (s *Service) handleSession(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.Session(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w %q", ErrUnknownSession, r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, s.viewSession(ss))
}

func (s *Service) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.CloseSession(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"session": id, "status": "closed"})
}

func (s *Service) handleBind(w http.ResponseWriter, r *http.Request) {
	var br BindJSON
	if !decodeJSON(w, r, &br) {
		return
	}
	job, err := s.BindSession(r.PathValue("id"), BindRequest{
		Name: br.Name, Values: br.Values, Shots: br.Shots, Seed: br.Seed,
	})
	writeAdmitted(w, job, err)
}
