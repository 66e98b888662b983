package crawler

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/hubapi"
	"repro/internal/manifest"
	"repro/internal/registry"
	"repro/internal/synth"
)

func testSetup(t *testing.T, dupFactor float64) (*synth.Dataset, *Crawler) {
	t.Helper()
	d, err := synth.Generate(synth.DefaultSpec(0.0002))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(hubapi.NewServer(synth.Repositories(d), dupFactor, 11, 0))
	t.Cleanup(srv.Close)
	return d, &Crawler{Client: &hubapi.Client{Base: srv.URL}, Workers: 3}
}

func TestCrawlDeduplicates(t *testing.T) {
	d, c := testSetup(t, 1.386)
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Client.SearchPageContext(context.Background(), "/", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.RawEntries != first.Count {
		t.Fatalf("RawEntries = %d, want %d", res.RawEntries, first.Count)
	}
	if len(res.Repos) != len(d.Repos) {
		t.Fatalf("distinct repos = %d, want %d", len(res.Repos), len(d.Repos))
	}
	if res.Duplicates != res.RawEntries-(len(res.Repos)-res.Officials) {
		t.Fatalf("duplicate accounting wrong: %+v", res)
	}
	if res.Duplicates == 0 {
		t.Fatal("no duplicates detected at dup factor 1.386")
	}
	// Officials present and each non-official name carries a slash.
	seenOfficial := false
	for _, name := range res.Repos {
		if name == "nginx" {
			seenOfficial = true
		}
	}
	if !seenOfficial {
		t.Fatal("official repo nginx missing from crawl")
	}
}

func TestCrawlNoDuplicates(t *testing.T) {
	d, c := testSetup(t, 1.0)
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Duplicates != 0 {
		t.Fatalf("Duplicates = %d, want 0", res.Duplicates)
	}
	if len(res.Repos) != len(d.Repos) {
		t.Fatalf("repos = %d, want %d", len(res.Repos), len(d.Repos))
	}
}

func TestCrawlSorted(t *testing.T) {
	_, c := testSetup(t, 1.386)
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Repos); i++ {
		if res.Repos[i] <= res.Repos[i-1] {
			t.Fatalf("repo list not sorted at %d: %s <= %s", i, res.Repos[i], res.Repos[i-1])
		}
	}
}

func TestCrawlSeparatesOfficials(t *testing.T) {
	_, c := testSetup(t, 1.2)
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Officials == 0 {
		t.Fatal("no officials merged")
	}
	nonOfficial := 0
	for _, name := range res.Repos {
		if strings.Contains(name, "/") {
			nonOfficial++
		}
	}
	if nonOfficial+res.Officials < len(res.Repos) {
		t.Fatalf("official/non-official split inconsistent: %d + %d < %d",
			nonOfficial, res.Officials, len(res.Repos))
	}
}

func TestCrawlerDefaultSettings(t *testing.T) {
	d, c := testSetup(t, 1.0)
	c.Workers = 0 // exercise the default
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Repos) != len(d.Repos) {
		t.Fatalf("repos = %d, want %d", len(res.Repos), len(d.Repos))
	}
}

// TestCatalogMatchesSearchScrape checks the paper's search scrape against
// the registry's own catalog of the same population: deduplicating the
// repeated search entries must recover the identical repository set.
func TestCatalogMatchesSearchScrape(t *testing.T) {
	d, err := synth.Generate(synth.MaterializeSpec(0.0001))
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(blobstore.NewMemory())
	if _, err := synth.Materialize(d, reg); err != nil {
		t.Fatal(err)
	}
	search := hubapi.NewServer(synth.Repositories(d), 1.386, 5, 20)
	searchSrv := httptest.NewServer(search)
	defer searchSrv.Close()

	scrape, err := (&Crawler{Client: &hubapi.Client{Base: searchSrv.URL}}).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	catalog := reg.Repos()
	sort.Strings(catalog)
	if len(scrape.Repos) != len(catalog) {
		t.Fatalf("scrape found %d repos, catalog %d", len(scrape.Repos), len(catalog))
	}
	for i := range scrape.Repos {
		if scrape.Repos[i] != catalog[i] {
			t.Fatalf("repo lists diverge at %d: %s vs %s", i, scrape.Repos[i], catalog[i])
		}
	}
	// The scrape saw duplicates and removed them.
	if scrape.Duplicates == 0 {
		t.Error("scrape saw no duplicates at dup factor 1.386")
	}
}

func TestCrawlerServerDown(t *testing.T) {
	c := &Crawler{Client: &hubapi.Client{Base: "http://127.0.0.1:1"}}
	if _, err := c.RunContext(context.Background()); err == nil {
		t.Fatal("crawl against dead server succeeded")
	}
}

// TestCrawlStopsAtFirstFailedPage: a page that fails ends the crawl; no
// later page is requested.
func TestCrawlStopsAtFirstFailedPage(t *testing.T) {
	repos := make([]manifest.Repository, 5*hubapi.DefaultPageSize)
	for i := range repos {
		repos[i].Name = fmt.Sprintf("user%d/app", i)
	}
	hub := hubapi.NewServer(repos, 1, 1, 0)
	var pageRequests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v2/search/repositories" {
			pageRequests.Add(1)
			if r.URL.Query().Get("page") == "2" {
				http.Error(w, "search backend down", http.StatusInternalServerError)
				return
			}
		}
		hub.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := &Crawler{Client: &hubapi.Client{Base: srv.URL}, Workers: 1}
	if _, err := c.RunContext(context.Background()); err == nil {
		t.Fatal("crawl with a failed page succeeded")
	}
	if n := pageRequests.Load(); n != 2 {
		t.Fatalf("crawl requested %d of 5 pages, want 2 (it must stop at the failed page 2)", n)
	}
}
