// Package crawler enumerates Docker Hub repositories the way the paper's
// crawler did (§III-A): it pages through the Hub search results for "/"
// (every non-official repository name contains one), parses each page,
// deduplicates the entries the Hub indexing logic repeats, and merges in
// the separately enumerated official repositories.
//
// On the paper's run this turned 634,412 raw entries into 457,627 distinct
// repositories.
package crawler

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/hubapi"
)

// Result is the outcome of a crawl.
type Result struct {
	// RawEntries is the number of search entries seen before dedup.
	RawEntries int
	// Duplicates is RawEntries minus the distinct count.
	Duplicates int
	// Repos is the deduplicated, sorted repository list (official and
	// non-official).
	Repos []string
	// Officials is the number of official repositories in Repos.
	Officials int
}

// Crawler pages through a hubapi search service.
type Crawler struct {
	Client *hubapi.Client
	// Workers bounds concurrent page fetches (engine.Workers resolves
	// ≤ 0). The first page is always fetched alone to learn the total
	// count.
	Workers int
}

// RunContext performs the crawl. The first page that fails ends it: the
// fetches in flight are cancelled and no further page is requested. When
// ctx is done, the crawl returns ctx's error.
func (c *Crawler) RunContext(ctx context.Context) (*Result, error) {
	const pageSize = hubapi.DefaultPageSize

	// First page reveals the total entry count.
	first, err := c.Client.SearchPageContext(ctx, "/", 1, pageSize)
	if err != nil {
		return nil, fmt.Errorf("crawler: first page: %w", err)
	}
	totalPages := (first.Count + pageSize - 1) / pageSize

	pages := make([][]hubapi.Result, totalPages)
	if totalPages > 0 {
		pages[0] = first.Results
	}

	// Remaining pages in parallel; pages[i] is written by the one call
	// that fetches page i+1.
	err = engine.ForEach(ctx, c.Workers, max(totalPages-1, 0), func(ctx context.Context, i int) error {
		p, err := c.Client.SearchPageContext(ctx, "/", i+2, pageSize)
		if err != nil {
			return fmt.Errorf("crawler: page %d: %w", i+2, err)
		}
		pages[i+1] = p.Results
		return nil
	})
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, err
	}

	// Parse and deduplicate.
	res := &Result{}
	seen := make(map[string]bool)
	for _, page := range pages {
		for _, entry := range page {
			res.RawEntries++
			if !seen[entry.RepoName] {
				seen[entry.RepoName] = true
				res.Repos = append(res.Repos, entry.RepoName)
			}
		}
	}

	// Officials are listed separately (their names carry no "/").
	officials, err := c.Client.OfficialsContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("crawler: officials: %w", err)
	}
	for _, o := range officials {
		if !seen[o.RepoName] {
			seen[o.RepoName] = true
			res.Repos = append(res.Repos, o.RepoName)
			res.Officials++
		}
	}

	res.Duplicates = res.RawEntries - (len(res.Repos) - res.Officials)
	sort.Strings(res.Repos)
	return res, nil
}
