// Package hubapi simulates the Docker Hub web search surface the paper's
// crawler scraped (§III-A). Docker Hub had no API to list all repositories,
// so the crawler searched for "/" (every non-official repository name
// contains one) and paged through the results; the Hub indexing logic
// returned duplicate entries, which is why the paper's raw list of 634,412
// entries deduplicates to 457,627 distinct repositories.
//
// The server reproduces both behaviours: paged search with a query filter
// and deterministic duplicate injection at the paper's duplication factor.
// A separate endpoint lists official repositories (served by Docker Hub
// partners), which the paper enumerated separately because they contain no
// "/".
package hubapi

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/httpx"
	"repro/internal/manifest"
)

// Result is one search hit, mirroring Docker Hub's search JSON.
type Result struct {
	RepoName   string `json:"repo_name"`
	PullCount  int64  `json:"pull_count"`
	IsOfficial bool   `json:"is_official"`
}

// Page is one page of search results.
type Page struct {
	Count   int      `json:"count"`
	Next    string   `json:"next,omitempty"`
	Results []Result `json:"results"`
}

// DefaultPageSize matches Docker Hub's search page size at crawl time.
const DefaultPageSize = 100

// Server serves the search and official-list endpoints over a fixed
// repository population.
type Server struct {
	raw       []Result // includes injected duplicates, stable order
	officials []Result
	pageSize  int
}

// NewServer builds the search index. dupFactor ≥ 1 is the ratio of raw
// entries to distinct repositories (the paper's 634,412/457,627 ≈ 1.386);
// the extra entries are duplicates of randomly chosen repositories,
// interleaved deterministically by seed.
func NewServer(repos []manifest.Repository, dupFactor float64, seed int64, pageSize int) *Server {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	var nonOfficial, officials []Result
	for i := range repos {
		r := Result{RepoName: repos[i].Name, PullCount: repos[i].PullCount, IsOfficial: repos[i].Official}
		if repos[i].Official {
			officials = append(officials, r)
		} else {
			nonOfficial = append(nonOfficial, r)
		}
	}
	raw := append([]Result(nil), nonOfficial...)
	if dupFactor > 1 && len(nonOfficial) > 0 {
		rng := rand.New(rand.NewSource(seed))
		extra := int(float64(len(nonOfficial)) * (dupFactor - 1))
		for i := 0; i < extra; i++ {
			raw = append(raw, nonOfficial[rng.Intn(len(nonOfficial))])
		}
		rng.Shuffle(len(raw), func(i, j int) { raw[i], raw[j] = raw[j], raw[i] })
	}
	return &Server{raw: raw, officials: officials, pageSize: pageSize}
}

// ServeHTTP implements the two endpoints:
//
//	GET /v2/search/repositories?query=<q>&page=<n>&page_size=<k>
//	GET /v2/repositories/official
func (s *Server) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	switch {
	case req.URL.Path == "/v2/search/repositories":
		s.serveSearch(w, req)
	case req.URL.Path == "/v2/repositories/official":
		writeJSON(w, Page{Count: len(s.officials), Results: s.officials})
	default:
		http.NotFound(w, req)
	}
}

func (s *Server) serveSearch(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	query := q.Get("query")
	page := 1
	if p := q.Get("page"); p != "" {
		n, err := strconv.Atoi(p)
		if err != nil || n < 1 {
			http.Error(w, "bad page", http.StatusBadRequest)
			return
		}
		page = n
	}
	size := s.pageSize
	if ps := q.Get("page_size"); ps != "" {
		n, err := strconv.Atoi(ps)
		if err != nil || n < 1 || n > 1000 {
			http.Error(w, "bad page_size", http.StatusBadRequest)
			return
		}
		size = n
	}

	matched := s.raw
	if query != "" && query != "/" {
		matched = nil
		for _, r := range s.raw {
			if strings.Contains(r.RepoName, query) {
				matched = append(matched, r)
			}
		}
	}

	lo := (page - 1) * size
	hi := lo + size
	if lo > len(matched) {
		lo = len(matched)
	}
	if hi > len(matched) {
		hi = len(matched)
	}
	out := Page{Count: len(matched), Results: matched[lo:hi]}
	if hi < len(matched) {
		out.Next = fmt.Sprintf("/v2/search/repositories?query=%s&page=%d&page_size=%d", query, page+1, size)
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// Client pages through the search endpoints.
type Client struct {
	Base string
	HTTP *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	// Shared tuned transport: the crawler pages this API with a worker
	// pool, which the 2-idle-conns-per-host default transport throttles.
	return httpx.DefaultClient
}

// SearchPageContext fetches one page of results for query; the request
// aborts when ctx is done.
func (c *Client) SearchPageContext(ctx context.Context, query string, page, pageSize int) (*Page, error) {
	url := fmt.Sprintf("%s/v2/search/repositories?query=%s&page=%d&page_size=%d",
		c.Base, query, page, pageSize)
	return c.fetch(ctx, url)
}

// OfficialsContext fetches the official repository list.
func (c *Client) OfficialsContext(ctx context.Context) ([]Result, error) {
	p, err := c.fetch(ctx, c.Base+"/v2/repositories/official")
	if err != nil {
		return nil, err
	}
	return p.Results, nil
}

func (c *Client) fetch(ctx context.Context, url string) (*Page, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("hubapi client: building request: %w", err)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("hubapi client: %w", err)
	}
	defer httpx.DrainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("hubapi client: %s: status %d", url, resp.StatusCode)
	}
	var p Page
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		return nil, fmt.Errorf("hubapi client: decoding page: %w", err)
	}
	return &p, nil
}
