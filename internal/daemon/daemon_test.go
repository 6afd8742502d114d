package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestParseTenants(t *testing.T) {
	got, err := ParseTenants("alice=tok-a:4, bob=tok-b ,carol=tok-c:0")
	if err != nil {
		t.Fatal(err)
	}
	want := []Tenant{
		{Name: "alice", Token: "tok-a", Slots: 4},
		{Name: "bob", Token: "tok-b"},
		{Name: "carol", Token: "tok-c"},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d tenants, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tenant %d: %+v, want %+v", i, got[i], want[i])
		}
	}

	if tenants, err := ParseTenants("  "); err != nil || tenants != nil {
		t.Fatalf("blank spec: %v %v", tenants, err)
	}

	for name, spec := range map[string]string{
		"no-token":        "alice",
		"empty-token":     "alice=",
		"empty-token-quo": "alice=:3",
		"bad-slots":       "alice=tok:x",
		"negative-slots":  "alice=tok:-1",
		"dup-name":        "a=t1,a=t2",
		"dup-token":       "a=t,b=t",
	} {
		if _, err := ParseTenants(spec); err == nil {
			t.Errorf("%s (%q): expected parse error", name, spec)
		}
	}
}

func authedReq(token string) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/studies", nil)
	if token != "" {
		r.Header.Set("Authorization", "Bearer "+token)
	}
	return r
}

func TestAuthAuthenticate(t *testing.T) {
	tenants, err := ParseTenants("alice=tok-a:4,bob=tok-b:1")
	if err != nil {
		t.Fatal(err)
	}
	a := NewAuth("fallback", tenants)
	if !a.Enabled() {
		t.Fatal("auth with credentials reports disabled")
	}

	cases := []struct {
		token  string
		tenant string
		ok     bool
	}{
		{"tok-a", "alice", true},
		{"tok-b", "bob", true},
		{"fallback", "", true},
		{"nope", "", false},
		{"", "", false},
	}
	for _, c := range cases {
		tenant, ok := a.Authenticate(authedReq(c.token))
		if tenant != c.tenant || ok != c.ok {
			t.Errorf("token %q: (%q,%v), want (%q,%v)", c.token, tenant, ok, c.tenant, c.ok)
		}
	}

	if got := a.Slots("alice"); got != 4 {
		t.Errorf("alice slots %d, want 4", got)
	}
	if got := a.Slots("nobody"); got != 0 {
		t.Errorf("unknown tenant slots %d, want 0", got)
	}
	names := a.Tenants()
	if len(names) != 2 || names[0].Name != "alice" || names[1].Name != "bob" {
		t.Errorf("tenant table not name-sorted: %+v", names)
	}

	// Disabled auth admits everyone as the anonymous tenant.
	var open *Auth
	if tenant, ok := open.Authenticate(authedReq("")); !ok || tenant != "" {
		t.Fatal("nil auth must be open")
	}
	if NewAuth("", nil).Enabled() {
		t.Fatal("empty auth reports enabled")
	}
}

func TestAuthRequireMiddleware(t *testing.T) {
	a := NewAuth("", []Tenant{{Name: "alice", Token: "tok-a", Slots: 2}})
	var sawTenant string
	h := a.RequireTenant(func(w http.ResponseWriter, r *http.Request, tenant string) {
		sawTenant = tenant
		WriteJSON(w, http.StatusOK, map[string]any{"ok": true})
	})

	rec := httptest.NewRecorder()
	h(rec, authedReq("tok-a"))
	if rec.Code != http.StatusOK || sawTenant != "alice" {
		t.Fatalf("authed call: %d tenant %q", rec.Code, sawTenant)
	}

	rec = httptest.NewRecorder()
	h(rec, authedReq("wrong"))
	if rec.Code != http.StatusUnauthorized {
		t.Fatalf("bad token: %d, want 401", rec.Code)
	}
	var apiErr APIError
	if err := json.NewDecoder(rec.Body).Decode(&apiErr); err != nil || apiErr.Error == "" {
		t.Fatalf("401 body not an APIError: %v %+v", err, apiErr)
	}
}

// TestRunServesAndDrains exercises the shared lifecycle: Run serves until
// the context is cancelled, then calls drain before shutting the listener
// down.
func TestRunServesAndDrains(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /ping", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{"ok": true})
	})

	drained := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- Run(ctx, addr, mux, 5*time.Second, func(context.Context) error {
			close(drained)
			return nil
		})
	}()

	url := fmt.Sprintf("http://%s/ping", addr)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	select {
	case <-drained:
	default:
		t.Fatal("drain was not called")
	}
}
