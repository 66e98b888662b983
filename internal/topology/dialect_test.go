package topology

import (
	"fmt"
	"io"
	"net/http"
	"testing"

	"repro/internal/digest"
	"repro/internal/manifest"
	"repro/internal/registry"
)

// TestOneDialectAcrossTiers: a client cannot tell which front tier
// answers. The same content is provisioned as a bare registry, behind a
// pull-through mirror and behind a two-node cluster router, and the same
// requests get the same status, body and headers from each; the mirror
// and the router see the blob cold first and warm after. For the error
// cases only the status is compared, since the mirror's envelope names
// the origin. The registry's own answers are checked against the dialect.
func TestOneDialectAcrossTiers(t *testing.T) {
	tiers := []struct {
		name string
		topo Topology
	}{
		{"registry", Topology{}},
		{"mirror", Topology{MirrorBytes: 1 << 20}},
		{"router", Topology{Nodes: 2}},
	}
	const size = 64 << 10
	var img image
	urls := make([]string, len(tiers))
	for i, tier := range tiers {
		s, err := Provision(group(t), tier.topo, Site{
			Repos: []manifest.Repository{{Name: "corp/secret", Private: true}},
			Fill: func(reg *registry.Registry) error {
				img = pushImage(t, reg, "user/app", blobOfSize(7, size), false)
				pushImage(t, reg, "corp/secret", blobOfSize(8, 4<<10), true)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		urls[i] = s.URL
	}

	blob := "/v2/" + img.repo + "/blobs/" + img.layerD.String()
	byTag := "/v2/" + img.repo + "/manifests/latest"
	byDigest := "/v2/" + img.repo + "/manifests/" + img.manifest.String()
	get, head := http.MethodGet, http.MethodHead
	requests := []struct {
		name, method, path, rangeSpec string
		statusOnly                    bool
		// The registry's answer: its status and, when named, one header.
		status      int
		header, val string
	}{
		{"blob GET", get, blob, "", false, http.StatusOK, "Content-Length", fmt.Sprint(size)},
		{"mid range", get, blob, "bytes=10-19", false, http.StatusPartialContent, "Content-Range", fmt.Sprintf("bytes 10-19/%d", size)},
		{"open range", get, blob, "bytes=60000-", false, http.StatusPartialContent, "Content-Length", fmt.Sprint(size - 60000)},
		{"unsatisfiable range", get, blob, fmt.Sprintf("bytes=%d-", size), false, http.StatusRequestedRangeNotSatisfiable, "Content-Range", fmt.Sprintf("bytes */%d", size)},
		{"blob HEAD", head, blob, "", false, http.StatusOK, "Content-Length", fmt.Sprint(size)},
		{"HEAD with range", head, blob, "bytes=10-19", false, http.StatusPartialContent, "Content-Range", fmt.Sprintf("bytes 10-19/%d", size)},
		{"manifest GET by tag", get, byTag, "", false, http.StatusOK, "Docker-Content-Digest", img.manifest.String()},
		{"manifest HEAD by tag", head, byTag, "", false, http.StatusOK, "Docker-Content-Digest", img.manifest.String()},
		{"manifest GET by digest", get, byDigest, "", false, http.StatusOK, "Content-Type", manifest.MediaTypeManifest},
		{"manifest HEAD by digest", head, byDigest, "", false, http.StatusOK, "Content-Type", manifest.MediaTypeManifest},
		{"unknown blob", get, "/v2/" + img.repo + "/blobs/" + digest.FromBytes([]byte("absent")).String(), "", true, http.StatusNotFound, "", ""},
		{"unknown repository", get, "/v2/nobody/here/manifests/latest", "", true, http.StatusNotFound, "", ""},
		{"private without token", get, "/v2/corp/secret/manifests/latest", "", true, http.StatusUnauthorized, "", ""},
	}

	headers := []string{"Content-Length", "Content-Range", "Content-Type", "Docker-Content-Digest", "Accept-Ranges"}
	for _, rq := range requests {
		var want string
		for i, tier := range tiers {
			req, err := http.NewRequest(rq.method, urls[i]+rq.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rq.rangeSpec != "" {
				req.Header.Set("Range", rq.rangeSpec)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s via %s: %v", rq.name, tier.name, err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s via %s: %v", rq.name, tier.name, err)
			}
			got := fmt.Sprint(resp.StatusCode)
			if !rq.statusOnly {
				for _, h := range headers {
					got += fmt.Sprintf("\n%s: %q", h, resp.Header.Get(h))
				}
				got += fmt.Sprintf("\nbody: %d bytes, %s", len(body), digest.FromBytes(body).Short())
			}
			if i > 0 {
				if got != want {
					t.Errorf("%s via %s:\n%s\nvia %s:\n%s", rq.name, tier.name, got, tiers[0].name, want)
				}
				continue
			}
			want = got
			if resp.StatusCode != rq.status || rq.header != "" && resp.Header.Get(rq.header) != rq.val {
				t.Errorf("%s via %s: %d, %s %q; want %d, %q",
					rq.name, tier.name, resp.StatusCode, rq.header, resp.Header.Get(rq.header), rq.status, rq.val)
			}
		}
	}
}
