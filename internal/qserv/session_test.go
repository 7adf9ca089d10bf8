package qserv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/openql"
	"repro/internal/qubo"
)

// ansatzProgram builds a one-layer QAOA-flavoured program on 3 qubits.
// With lit nil the angles stay symbolic ($gamma, $beta); otherwise they
// are the literal values — the recompile reference for the fast path.
func ansatzProgram(lit map[string]float64) *openql.Program {
	angle := func(k *openql.Kernel, name string, q int, sym string, coeff float64) {
		switch {
		case lit != nil:
			k.Gate(name, []int{q}, coeff*lit[sym])
		case name == "rz":
			k.RZExpr(q, circuit.Sym(sym).Scale(coeff))
		default:
			k.RXExpr(q, circuit.Sym(sym).Scale(coeff))
		}
	}
	p := openql.NewProgram("ansatz", 3)
	k := openql.NewKernel("layer", 3)
	for q := 0; q < 3; q++ {
		k.H(q)
		angle(k, "rz", q, "gamma", 2)
		k.CNOT(q, (q+1)%3)
		angle(k, "rx", q, "beta", 1)
	}
	k.MeasureAll()
	p.AddKernel(k)
	return p
}

// TestSessionBindSharesOneCacheEntry is the tentpole contract: every
// binding of one symbolic program — and every session pinning it —
// shares a single full-artefact cache entry and a single prefix entry;
// binds run the fast path (no compile, a "bind" span instead) and their
// counts match an equivalent bind-then-recompile submission.
func TestSessionBindSharesOneCacheEntry(t *testing.T) {
	s := twoBackendService(t, Config{Seed: 11})

	sess, err := s.OpenSession(Request{Name: "ansatz", Program: ansatzProgram(nil), Backend: "perfect", Shots: 128})
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Symbols(); !reflect.DeepEqual(got, []string{"beta", "gamma"}) {
		t.Fatalf("Symbols = %v", got)
	}
	if s.viewSession(sess).CompileCacheHit {
		t.Fatal("first compile of the ansatz cannot be a cache hit")
	}
	base := s.Cache().Stats()
	if base.Entries != 1 || base.Misses != 1 {
		t.Fatalf("after session open: cache = %+v", base)
	}
	if n := s.PrefixCache().Stats().Entries; n != 1 {
		t.Fatalf("symbolic ansatz should hold one prefix entry, got %d", n)
	}

	// Stream parameter points; none may touch the compiler or the caches.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	points := []map[string]float64{
		{"gamma": 0.3, "beta": -1.1},
		{"gamma": -0.7, "beta": 0.2},
		{"gamma": 1.9, "beta": 2.4},
	}
	for i, vals := range points {
		j, err := s.BindSession(sess.ID, BindRequest{Name: fmt.Sprintf("p%d", i), Values: vals, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			t.Fatalf("bind %d: %v", i, err)
		}
		if j.Session() != sess.ID {
			t.Fatalf("bind job session = %q", j.Session())
		}
		if !j.CacheHit() {
			t.Fatal("bind sub-job must count as a skipped pipeline")
		}
		// The bind's trace replaces the compile phase with a bind span.
		if tr := j.Trace(); tr != nil {
			var names []string
			for _, c := range tr.View().Root.Children {
				if c.Name == "run" {
					for _, rc := range c.Children {
						names = append(names, rc.Name)
					}
				}
			}
			if fmt.Sprint(names) != "[bind execute]" {
				t.Fatalf("bind %d run children = %v", i, names)
			}
		}

		// Fast path ≡ bind-then-recompile: a literal submission with the
		// same seed must produce identical counts. The literal program
		// keys its own cache entry — restored below.
		ref, err := s.Submit(Request{Program: ansatzProgram(vals), Backend: "perfect", Shots: 128, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		got := j.Result().Report.Result.Counts
		want := ref.Result().Report.Result.Counts
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("bind %d counts %v != recompile counts %v", i, got, want)
		}
	}

	st := s.Cache().Stats()
	// The symbolic entry is still the only artefact the session path ever
	// created; the literal reference submissions added exactly one entry
	// each (they are distinct programs).
	wantEntries := 1 + len(points)
	if st.Entries != wantEntries {
		t.Fatalf("cache entries = %d, want %d (binds must not add entries)", st.Entries, wantEntries)
	}
	if st.Misses != uint64(wantEntries) {
		t.Fatalf("cache misses = %d, want %d (binds must not re-compile)", st.Misses, wantEntries)
	}
	m := scrape(t, s.Handler())
	if m["qserv_sessions_active"] != 1 || m["qserv_sessions_opened_total"] != 1 || m["qserv_binds_total"] != float64(len(points)) {
		t.Fatalf("session metrics: active=%g opened=%g binds=%g, want 1/1/%d",
			m["qserv_sessions_active"], m["qserv_sessions_opened_total"], m["qserv_binds_total"], len(points))
	}

	// A second session on the same symbolic program is a full-artefact
	// cache hit — all sessions of one ansatz share the single entry.
	// (The literal reference submissions above each added their own
	// prefix entry; the symbolic entry count must not grow further.)
	prefixEntries := s.PrefixCache().Stats().Entries
	sess2, err := s.OpenSession(Request{Program: ansatzProgram(nil), Backend: "perfect"})
	if err != nil {
		t.Fatal(err)
	}
	if !s.viewSession(sess2).CompileCacheHit {
		t.Fatal("second session on the same ansatz must hit the shared cache entry")
	}
	st2 := s.Cache().Stats()
	if st2.Entries != wantEntries || st2.Hits != base.Hits+1 {
		t.Fatalf("after second session: cache = %+v", st2)
	}
	if n := s.PrefixCache().Stats().Entries; n != prefixEntries {
		t.Fatalf("prefix entries grew from %d to %d", prefixEntries, n)
	}
}

func TestSessionValidationAndLifecycle(t *testing.T) {
	s := twoBackendService(t, Config{})

	if _, err := s.OpenSession(Request{QUBO: qubo.New(2)}); err == nil {
		t.Error("QUBO session accepted")
	}
	if _, err := s.OpenSession(Request{Program: ansatzProgram(nil), Backend: "nope"}); err == nil {
		t.Error("unknown backend accepted")
	}
	if _, err := s.BindSession("sess-999", BindRequest{}); err == nil {
		t.Error("bind on unknown session accepted")
	}

	sess, err := s.OpenSession(Request{Program: ansatzProgram(nil), Backend: "perfect", Shots: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.BindSession(sess.ID, BindRequest{Values: map[string]float64{"gamma": 1}}); err == nil {
		t.Error("missing symbol accepted")
	}
	if _, err := s.BindSession(sess.ID, BindRequest{Values: map[string]float64{"gamma": 1, "beta": 2, "x": 3}}); err == nil {
		t.Error("stray symbol accepted")
	}
	if got, ok := s.Session(sess.ID); !ok || got != sess {
		t.Fatal("Session lookup failed")
	}
	if err := s.CloseSession(sess.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseSession(sess.ID); err == nil {
		t.Error("double close accepted")
	}
	if _, ok := s.Session(sess.ID); ok {
		t.Error("closed session still visible")
	}

	// Concrete programs pin too; binds carry no values.
	conc, err := s.OpenSession(Request{Program: bellProgram("bell"), Backend: "perfect", Shots: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(conc.Symbols()) != 0 {
		t.Fatalf("bell symbols = %v", conc.Symbols())
	}
	j, err := s.BindSession(conc.ID, BindRequest{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSessionBindOverflowFailsTheJob binds a finite value whose angle
// overflows: the bind job fails with an error that names the symbol's
// expression, and the service keeps serving — a later bind on the same
// session runs.
func TestSessionBindOverflowFailsTheJob(t *testing.T) {
	s := twoBackendService(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, backend := range []string{"perfect", "semiconducting"} {
		sess, err := s.OpenSession(Request{CQASM: "version 1.0\nqubits 1\nrx q[0], 10*$t\nmeasure q[0]\n", Backend: backend, Shots: 8})
		if err != nil {
			t.Fatal(err)
		}
		j, err := s.BindSession(sess.ID, BindRequest{Values: map[string]float64{"t": 1e308}})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(ctx); err == nil || !strings.Contains(err.Error(), "10*$t evaluates to +Inf") {
			t.Errorf("%s: overflowing bind ended with %v, want an error naming 10*$t", backend, err)
		}
		j, err = s.BindSession(sess.ID, BindRequest{Values: map[string]float64{"t": 0.5}})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			t.Errorf("%s: bind after the failed one: %v", backend, err)
		}
	}
}

func TestSessionTTLAndLRUEviction(t *testing.T) {
	s := twoBackendService(t, Config{SessionTTL: 50 * time.Millisecond, MaxSessions: 2})

	open := func(name string) *Session {
		t.Helper()
		sess, err := s.OpenSession(Request{Name: name, Program: ansatzProgram(nil), Backend: "perfect"})
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	a, b := open("a"), open("b")
	// Touch a so b is the LRU victim when c arrives.
	if _, err := s.BindSession(a.ID, BindRequest{Values: map[string]float64{"gamma": 1, "beta": 2}}); err != nil {
		t.Fatal(err)
	}
	c := open("c")
	if _, ok := s.Session(b.ID); ok {
		t.Fatal("LRU session survived eviction")
	}
	if _, ok := s.Session(a.ID); !ok {
		t.Fatal("recently used session evicted")
	}
	// Both close reasons are exposed from the start, so a scrape before
	// any expiry already reads expired=0.
	m := scrape(t, s.Handler())
	evicted := m[`qserv_sessions_closed_total{reason="evicted"}`]
	expired := metricValue(t, m, `qserv_sessions_closed_total{reason="expired"}`)
	if evicted != 1 || expired != 0 || m["qserv_sessions_active"] != 2 {
		t.Fatalf("after eviction: evicted=%g expired=%g active=%g, want 1/0/2", evicted, expired, m["qserv_sessions_active"])
	}

	time.Sleep(80 * time.Millisecond)
	if _, ok := s.Session(a.ID); ok {
		t.Fatal("idle session survived its TTL")
	}
	if _, ok := s.Session(c.ID); ok {
		t.Fatal("idle session survived its TTL")
	}
	m = scrape(t, s.Handler())
	if expired := m[`qserv_sessions_closed_total{reason="expired"}`]; expired != 2 || m["qserv_sessions_active"] != 0 {
		t.Fatalf("after TTL: expired=%g active=%g, want 2/0", expired, m["qserv_sessions_active"])
	}
}

func TestSessionHTTP(t *testing.T) {
	s := twoBackendService(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const ansatz = `version 1.0
qubits 2
.layer
h q[0]
rz q[0], 2*$gamma
cnot q[0], q[1]
rx q[1], $beta
measure q[0]
measure q[1]
`
	// Open.
	body, _ := json.Marshal(SubmitRequest{Name: "http-ansatz", CQASM: ansatz, Backend: "perfect", Shots: 32})
	resp, err := http.Post(srv.URL+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open status = %d", resp.StatusCode)
	}
	var sv SessionView
	if err := json.NewDecoder(resp.Body).Decode(&sv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !sv.Parametric || !reflect.DeepEqual(sv.Symbols, []string{"beta", "gamma"}) {
		t.Fatalf("session view = %+v", sv)
	}

	// Bind and await the sub-job over HTTP.
	bindBody, _ := json.Marshal(BindJSON{Values: map[string]float64{"gamma": 0.4, "beta": -0.9}})
	resp, err = http.Post(srv.URL+"/sessions/"+sv.ID+"/bind", "application/json", bytes.NewReader(bindBody))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bind status = %d", resp.StatusCode)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(srv.URL + "/jobs/" + sub.ID + "?wait=10s")
	if err != nil {
		t.Fatal(err)
	}
	var jv JobView
	if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jv.Status != StatusDone || jv.Session != sv.ID {
		t.Fatalf("bind job view = %+v", jv)
	}
	if len(jv.Result.Counts) == 0 {
		t.Fatal("bind job has no counts")
	}

	// Malformed bind → 400; unknown session → 404.
	resp, _ = http.Post(srv.URL+"/sessions/"+sv.ID+"/bind", "application/json",
		bytes.NewReader([]byte(`{"values":{"gamma":1}}`)))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("partial bind status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Post(srv.URL+"/sessions/sess-404/bind", "application/json",
		bytes.NewReader([]byte(`{"values":{}}`)))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session bind status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// List, get, delete.
	resp, _ = http.Get(srv.URL + "/sessions")
	var list map[string][]SessionView
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list["sessions"]) != 1 || list["sessions"][0].Binds != 1 {
		t.Fatalf("session list = %+v", list)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/sessions/"+sv.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	resp, _ = http.Get(srv.URL + "/sessions/" + sv.ID)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}
