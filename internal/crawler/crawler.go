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
	"sync"

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
	// Workers bounds concurrent page fetches (4 if 0). The first page is
	// always fetched alone to learn the total count.
	Workers int
}

// RunContext performs the crawl. When ctx is done, in-flight page fetches
// abort and the crawl returns ctx's error.
func (c *Crawler) RunContext(ctx context.Context) (*Result, error) {
	const pageSize = hubapi.DefaultPageSize
	workers := c.Workers
	if workers <= 0 {
		workers = 4
	}

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

	// Remaining pages in parallel.
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		fetchErr error
	)
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pageNum := range work {
				p, err := c.Client.SearchPageContext(ctx, "/", pageNum, pageSize)
				mu.Lock()
				if err != nil && fetchErr == nil {
					fetchErr = fmt.Errorf("crawler: page %d: %w", pageNum, err)
				}
				if err == nil {
					pages[pageNum-1] = p.Results
				}
				mu.Unlock()
			}
		}()
	}
	for pageNum := 2; pageNum <= totalPages; pageNum++ {
		work <- pageNum
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if fetchErr != nil {
		return nil, fetchErr
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
