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
	"repro/internal/httpx"
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
	// With an ingest hook installed the upload is analyzed (see Ingest): a
	// decomposing store reports the members it walks, any other store's
	// committed blob is read back into the hook. The hook learns of a
	// committed layer only for verified uploads, and the response waits
	// for it, so a client push is durable-and-analyzed.
	src := io.Reader(io.LimitReader(req.Body, maxBlobSize))
	if hook := r.ingestHook(); hook != nil {
		up := &ingestUpload{Reader: src, hook: hook, d: want}
		_, err = r.blobs.PutStream(want, up)
		up.finish(r.blobs, err)
	} else {
		_, err = r.blobs.PutStream(want, src)
	}
	if err != nil {
		if errors.Is(err, blobstore.ErrDigestMismatch) {
			WriteError(w, http.StatusBadRequest, "DIGEST_INVALID", "content does not match digest")
		} else {
			WriteError(w, http.StatusBadRequest, "BLOB_UPLOAD_INVALID", err.Error())
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
	raw, err := readManifest(req.Body, req.ContentLength)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "MANIFEST_INVALID", "reading manifest body: "+err.Error())
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

// PushBlobContext uploads a blob via the wire API (client side).
func (c *Client) PushBlobContext(ctx context.Context, name string, content []byte) (digest.Digest, error) {
	d := digest.FromBytes(content)
	resp, err := c.do(ctx, http.MethodPost, c.Base+"/v2/"+name+"/blobs/uploads/?digest="+url.QueryEscape(d.String()),
		bytes.NewReader(content), nil, http.StatusCreated)
	if err != nil {
		return "", err
	}
	httpx.DrainClose(resp.Body)
	return d, nil
}

// PushManifestContext uploads and tags a manifest via the wire API
// (client side).
func (c *Client) PushManifestContext(ctx context.Context, name, tag string, m *manifest.Manifest) (digest.Digest, error) {
	raw, err := m.Marshal()
	if err != nil {
		return "", err
	}
	resp, err := c.do(ctx, http.MethodPut, c.Base+"/v2/"+name+"/manifests/"+url.PathEscape(tag),
		bytes.NewReader(raw), http.Header{"Content-Type": {manifest.MediaTypeManifest}}, http.StatusCreated)
	if err != nil {
		return "", err
	}
	httpx.DrainClose(resp.Body)
	return digest.FromBytes(raw), nil
}

// DeleteManifestContext removes a tag (or, given a digest ref, every tag
// pointing at that manifest) via the wire API (client side).
func (c *Client) DeleteManifestContext(ctx context.Context, name, ref string) error {
	resp, err := c.do(ctx, http.MethodDelete, c.Base+"/v2/"+name+"/manifests/"+url.PathEscape(ref), nil, nil, http.StatusAccepted)
	if err != nil {
		return err
	}
	httpx.DrainClose(resp.Body)
	return nil
}
