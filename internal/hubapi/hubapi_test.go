package hubapi

import (
	"context"
	"net/http"
	"net/http/httptest"
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

func TestRateLimiting(t *testing.T) {
	s := NewServer(testRepos(), 1.0, 7, 50)
	s.RateLimitEvery = 3
	srv := httptest.NewServer(s)
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
	// The 429 carries Retry-After for well-behaved clients.
	resp, err := http.Get(srv.URL + "/v2/search/repositories") // request #10 -> ok; #11?
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for i := 0; i < 3; i++ {
		resp, err = http.Get(srv.URL + "/v2/search/repositories")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			return
		}
	}
	t.Fatal("no 429 observed in follow-up requests")
}

func TestRateLimitedCrawlRecoversWithRetries(t *testing.T) {
	s := NewServer(testRepos(), 1.0, 7, 50)
	s.RateLimitEvery = 4
	srv := httptest.NewServer(s)
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
