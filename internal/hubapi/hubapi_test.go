package hubapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/manifest"
)

func testRepos() []manifest.Repository {
	repos := []manifest.Repository{
		{Name: "nginx", Official: true, PullCount: 650_000_000},
		{Name: "redis", Official: true, PullCount: 264_000_000},
	}
	for i := 0; i < 250; i++ {
		repos = append(repos, manifest.Repository{
			Name:      "user" + string(rune('a'+i%26)) + "/app" + string(rune('0'+i%10)),
			PullCount: int64(i),
		})
	}
	return repos
}

// RawEntryCount returns the number of raw search entries (with
// duplicates) matching the "/" query.
func (s *Server) RawEntryCount() int { return len(s.raw) }

// throttled rejects every nth request with 429 Too Many Requests and a
// Retry-After header — the throttling a month-long crawl of a public
// service runs into.
func throttled(h http.Handler, n int64) http.Handler {
	var requests atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if requests.Add(1)%n == 0 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "rate limited", http.StatusTooManyRequests)
			return
		}
		h.ServeHTTP(w, r)
	})
}

func newTestServer(t *testing.T, dupFactor float64) (*Server, *Client) {
	t.Helper()
	s := NewServer(testRepos(), dupFactor, 7, 50)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, &Client{Base: srv.URL}
}

func TestDuplicateInjection(t *testing.T) {
	s, _ := newTestServer(t, 1.386)
	n := 250.0
	want := 250 + int(n*(1.386-1))
	if got := s.RawEntryCount(); got != want {
		t.Fatalf("RawEntryCount = %d, want %d", got, want)
	}
}

func TestNoDuplicatesAtFactorOne(t *testing.T) {
	s, _ := newTestServer(t, 1.0)
	if got := s.RawEntryCount(); got != 250 {
		t.Fatalf("RawEntryCount = %d, want 250", got)
	}
}

func TestSearchPagination(t *testing.T) {
	s, c := newTestServer(t, 1.386)
	var all []Result
	page := 1
	for {
		p, err := c.SearchPageContext(context.Background(), "/", page, 50)
		if err != nil {
			t.Fatal(err)
		}
		if p.Count != s.RawEntryCount() {
			t.Fatalf("page count = %d, want %d", p.Count, s.RawEntryCount())
		}
		all = append(all, p.Results...)
		if p.Next == "" {
			break
		}
		page++
	}
	if len(all) != s.RawEntryCount() {
		t.Fatalf("paged through %d entries, want %d", len(all), s.RawEntryCount())
	}
	// No official names in the "/" search (they contain no slash... but
	// the server filters by raw list, which excludes officials entirely).
	for _, r := range all {
		if r.IsOfficial {
			t.Fatalf("official repo %s in non-official search", r.RepoName)
		}
	}
}

func TestSearchQueryFilter(t *testing.T) {
	_, c := newTestServer(t, 1.0)
	p, err := c.SearchPageContext(context.Background(), "usera/", 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if p.Count == 0 {
		t.Fatal("query filter returned nothing")
	}
	for _, r := range p.Results {
		if r.RepoName[:6] != "usera/" {
			t.Fatalf("filter leaked %s", r.RepoName)
		}
	}
}

func TestOfficials(t *testing.T) {
	_, c := newTestServer(t, 1.386)
	offs, err := c.OfficialsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != 2 {
		t.Fatalf("officials = %d, want 2", len(offs))
	}
	if offs[0].RepoName != "nginx" || offs[0].PullCount != 650_000_000 {
		t.Fatalf("first official = %+v", offs[0])
	}
}

func TestBadParams(t *testing.T) {
	_, c := newTestServer(t, 1.0)
	base := c.Base
	for _, url := range []string{
		base + "/v2/search/repositories?page=0",
		base + "/v2/search/repositories?page=x",
		base + "/v2/search/repositories?page_size=0",
		base + "/v2/search/repositories?page_size=99999",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, resp.StatusCode)
		}
	}
	resp, err := http.Get(base + "/v2/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d, want 404", resp.StatusCode)
	}
}

func TestPageBeyondEnd(t *testing.T) {
	_, c := newTestServer(t, 1.0)
	p, err := c.SearchPageContext(context.Background(), "/", 999, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Results) != 0 || p.Next != "" {
		t.Fatalf("beyond-end page: %d results, next=%q", len(p.Results), p.Next)
	}
}

// A 429 is an error for the page it answers, and the client's next
// request goes through.
func TestRateLimiting(t *testing.T) {
	srv := httptest.NewServer(throttled(NewServer(testRepos(), 1.0, 7, 50), 3))
	defer srv.Close()
	c := &Client{Base: srv.URL}

	limited, ok := 0, 0
	for i := 0; i < 9; i++ {
		if _, err := c.SearchPageContext(context.Background(), "/", 1, 50); err != nil {
			limited++
		} else {
			ok++
		}
	}
	if limited != 3 || ok != 6 {
		t.Fatalf("limited=%d ok=%d, want 3/6 at every-3rd throttling", limited, ok)
	}
}

func TestRateLimitedCrawlRecoversWithRetries(t *testing.T) {
	srv := httptest.NewServer(throttled(NewServer(testRepos(), 1.0, 7, 50), 4))
	defer srv.Close()
	c := &Client{Base: srv.URL}
	// A client retrying each page a few times pages through successfully.
	var all []Result
	page := 1
	for {
		var p *Page
		var err error
		for attempt := 0; attempt < 4; attempt++ {
			p, err = c.SearchPageContext(context.Background(), "/", page, 50)
			if err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("page %d failed after retries: %v", page, err)
		}
		all = append(all, p.Results...)
		if p.Next == "" {
			break
		}
		page++
	}
	if len(all) != 250 {
		t.Fatalf("rate-limited paging collected %d entries, want 250", len(all))
	}
}

func TestDeterministicInjection(t *testing.T) {
	a := NewServer(testRepos(), 1.386, 7, 50)
	b := NewServer(testRepos(), 1.386, 7, 50)
	if a.RawEntryCount() != b.RawEntryCount() {
		t.Fatal("raw counts differ")
	}
	for i := range a.raw {
		if a.raw[i] != b.raw[i] {
			t.Fatal("raw order differs for same seed")
		}
	}
}
