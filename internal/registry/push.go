package registry

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/blobstore"
	"repro/internal/digest"
	"repro/internal/manifest"
)

// Push support: the upload half of the Registry HTTP API v2, so the
// substrate covers the full build → push → pull lifecycle of Figure 1's
// ecosystem. The single-request ("monolithic") upload form is implemented:
//
//	POST /v2/<name>/blobs/uploads/?digest=<dg>   body = blob bytes → 201
//	PUT  /v2/<name>/manifests/<tag>              body = manifest   → 201
//
// Manifest pushes validate the document and require every referenced blob
// (config and layers) to be present, like a real registry.

// handlePush routes push requests; returns false if the request is not a
// push operation.
func (r *Registry) handlePush(w http.ResponseWriter, req *http.Request) bool {
	path := strings.TrimPrefix(req.URL.Path, "/v2/")
	switch {
	case req.Method == http.MethodPost && strings.HasSuffix(path, "/blobs/uploads/"):
		name := strings.TrimSuffix(path, "/blobs/uploads/")
		r.serveBlobUpload(w, req, name)
		return true
	case req.Method == http.MethodPut && strings.Contains(path, "/manifests/"):
		i := strings.LastIndex(path, "/manifests/")
		name, tag := path[:i], path[i+len("/manifests/"):]
		r.serveManifestPut(w, req, name, tag)
		return true
	}
	return false
}

func (r *Registry) authorizePush(w http.ResponseWriter, req *http.Request, name string) bool {
	r.mu.RLock()
	rp, ok := r.repos[name]
	r.mu.RUnlock()
	if !ok {
		WriteError(w, http.StatusNotFound, "NAME_UNKNOWN", "repository name not known to registry")
		return false
	}
	if rp.private && !authorized(req) {
		r.authDenied.Add(1)
		w.Header().Set("WWW-Authenticate", `Bearer realm="synthetic",service="registry"`)
		WriteError(w, http.StatusUnauthorized, "UNAUTHORIZED", "authentication required")
		return false
	}
	return true
}

// maxBlobSize bounds uploads; a guard against runaway requests.
const maxBlobSize = 1 << 31

func (r *Registry) serveBlobUpload(w http.ResponseWriter, req *http.Request, name string) {
	if !r.authorizePush(w, req, name) {
		return
	}
	want, err := digest.Parse(req.URL.Query().Get("digest"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "DIGEST_INVALID",
			"monolithic upload requires a valid ?digest= parameter")
		return
	}
	// Stream the upload straight into the store: bytes hash on the way to
	// disk and no full-blob buffer materializes server-side. Oversized
	// bodies are truncated by the limit and then rejected by the digest.
	// With an ingest hook installed the upload is analyzed in the same
	// pass (see Ingest): a decomposing store reports the members it walks,
	// any other store's bytes tee into the hook as they cross the wire.
	// The hook learns of a committed layer only for verified uploads, and
	// the response waits for it, so a client push is durable-and-analyzed.
	src := io.Reader(io.LimitReader(req.Body, maxBlobSize))
	if hook := r.ingestHook(); hook != nil {
		up := &ingestUpload{hook: hook, d: want, src: src}
		_, err = r.blobs.PutStream(want, up)
		up.finish(err)
	} else {
		_, err = r.blobs.PutStream(want, src)
	}
	if err != nil {
		if errors.Is(err, blobstore.ErrDigestMismatch) {
			WriteError(w, http.StatusBadRequest, "DIGEST_INVALID", "content does not match digest")
		} else {
			WriteError(w, http.StatusBadRequest, "BLOB_UPLOAD_INVALID", "reading upload body")
		}
		return
	}
	r.blobPushes.Add(1)
	w.Header().Set("Location", fmt.Sprintf("/v2/%s/blobs/%s", name, want))
	w.Header().Set("Docker-Content-Digest", want.String())
	w.WriteHeader(http.StatusCreated)
}

func (r *Registry) serveManifestPut(w http.ResponseWriter, req *http.Request, name, tag string) {
	if !r.authorizePush(w, req, name) {
		return
	}
	raw, err := io.ReadAll(io.LimitReader(req.Body, maxBlobSize))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "MANIFEST_INVALID", "reading manifest body")
		return
	}
	m, err := manifest.Unmarshal(raw)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "MANIFEST_INVALID", err.Error())
		return
	}
	// A real registry refuses manifests whose blobs were never uploaded.
	if !r.blobs.Has(m.Config.Digest) {
		WriteError(w, http.StatusBadRequest, "BLOB_UNKNOWN",
			"manifest references missing config "+m.Config.Digest.Short())
		return
	}
	for _, l := range m.Layers {
		if !r.blobs.Has(l.Digest) {
			WriteError(w, http.StatusBadRequest, "BLOB_UNKNOWN",
				"manifest references missing layer "+l.Digest.Short())
			return
		}
	}
	d, err := r.blobs.Put(raw)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "UNKNOWN", "storing manifest")
		return
	}
	r.mu.Lock()
	r.repos[name].tags[tag] = d
	r.mu.Unlock()
	r.manifestPushes.Add(1)
	r.notifyManifestTagged(name, tag, d, m)
	w.Header().Set("Docker-Content-Digest", d.String())
	w.WriteHeader(http.StatusCreated)
}

// GC removes every blob not reachable from a tagged manifest (manifest
// blob, config, layers) and returns the count and bytes freed — the
// mark-and-sweep a content-addressed registry needs once tags move.
func (r *Registry) GC() (removed int, freed int64, err error) {
	keep := make(map[digest.Digest]bool)
	r.mu.RLock()
	var manifests []digest.Digest
	for _, rp := range r.repos {
		for _, d := range rp.tags {
			manifests = append(manifests, d)
		}
	}
	r.mu.RUnlock()

	for _, md := range manifests {
		keep[md] = true
		rc, _, err := r.blobs.Get(md)
		if err != nil {
			return removed, freed, fmt.Errorf("registry: GC reading manifest %s: %w", md.Short(), err)
		}
		raw, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return removed, freed, err
		}
		m, err := manifest.Unmarshal(raw)
		if err != nil {
			return removed, freed, fmt.Errorf("registry: GC parsing manifest %s: %w", md.Short(), err)
		}
		keep[m.Config.Digest] = true
		for _, l := range m.Layers {
			keep[l.Digest] = true
		}
	}

	for _, d := range r.blobs.Digests() {
		if keep[d] {
			continue
		}
		size, err := r.blobs.Stat(d)
		if err != nil {
			continue
		}
		if err := r.blobs.Delete(d); err != nil {
			return removed, freed, fmt.Errorf("registry: GC deleting %s: %w", d.Short(), err)
		}
		removed++
		freed += size
	}
	return removed, freed, nil
}

// PushBlob uploads a blob via the wire API (client side).
func (c *Client) PushBlob(name string, content []byte) (digest.Digest, error) {
	return c.PushBlobContext(context.Background(), name, content)
}

// PushBlobContext is PushBlob with cancellation.
func (c *Client) PushBlobContext(ctx context.Context, name string, content []byte) (digest.Digest, error) {
	d := digest.FromBytes(content)
	u := fmt.Sprintf("%s/v2/%s/blobs/uploads/?digest=%s", c.Base, name, url.QueryEscape(d.String()))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(content))
	if err != nil {
		return "", fmt.Errorf("registry client: building upload: %w", err)
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", fmt.Errorf("registry client: uploading blob: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusCreated:
		return d, nil
	case http.StatusUnauthorized:
		return "", fmt.Errorf("%w: push %s", ErrUnauthorized, name)
	case http.StatusNotFound:
		return "", fmt.Errorf("%w: push %s", ErrNotFound, name)
	default:
		return "", fmt.Errorf("registry client: blob upload status %d", resp.StatusCode)
	}
}

// PushManifest uploads and tags a manifest via the wire API (client side).
func (c *Client) PushManifest(name, tag string, m *manifest.Manifest) (digest.Digest, error) {
	return c.PushManifestContext(context.Background(), name, tag, m)
}

// PushManifestContext is PushManifest with cancellation.
func (c *Client) PushManifestContext(ctx context.Context, name, tag string, m *manifest.Manifest) (digest.Digest, error) {
	raw, err := m.Marshal()
	if err != nil {
		return "", err
	}
	u := fmt.Sprintf("%s/v2/%s/manifests/%s", c.Base, name, url.PathEscape(tag))
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, u, bytes.NewReader(raw))
	if err != nil {
		return "", fmt.Errorf("registry client: building manifest put: %w", err)
	}
	req.Header.Set("Content-Type", manifest.MediaTypeManifest)
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", fmt.Errorf("registry client: pushing manifest: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusCreated:
		return digest.FromBytes(raw), nil
	case http.StatusUnauthorized:
		return "", fmt.Errorf("%w: push %s:%s", ErrUnauthorized, name, tag)
	case http.StatusNotFound:
		return "", fmt.Errorf("%w: push %s:%s", ErrNotFound, name, tag)
	default:
		return "", fmt.Errorf("registry client: manifest push status %d", resp.StatusCode)
	}
}

// DeleteManifest removes a tag (or, given a digest ref, every tag
// pointing at that manifest) via the wire API (client side).
func (c *Client) DeleteManifest(name, ref string) error {
	return c.DeleteManifestContext(context.Background(), name, ref)
}

// DeleteManifestContext is DeleteManifest with cancellation.
func (c *Client) DeleteManifestContext(ctx context.Context, name, ref string) error {
	u := fmt.Sprintf("%s/v2/%s/manifests/%s", c.Base, name, url.PathEscape(ref))
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, u, nil)
	if err != nil {
		return fmt.Errorf("registry client: building manifest delete: %w", err)
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("registry client: deleting manifest: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		return nil
	case http.StatusUnauthorized:
		return fmt.Errorf("%w: delete %s:%s", ErrUnauthorized, name, ref)
	case http.StatusNotFound:
		return fmt.Errorf("%w: delete %s:%s", ErrNotFound, name, ref)
	default:
		return fmt.Errorf("registry client: manifest delete status %d", resp.StatusCode)
	}
}
