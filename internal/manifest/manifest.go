// Package manifest defines the image manifest and repository metadata types
// exchanged with the registry, mirroring the Docker Image Manifest Version 2,
// Schema 2 wire format that Docker Hub served at crawl time (§II-B: "an
// image is represented by a manifest file, which contains a list of layer
// identifiers (digests) for all layers required by the image").
package manifest

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/digest"
)

// Media types from the Docker Image Manifest V2, Schema 2 specification.
const (
	MediaTypeManifest = "application/vnd.docker.distribution.manifest.v2+json"
	MediaTypeConfig   = "application/vnd.docker.container.image.v1+json"
	MediaTypeLayer    = "application/vnd.docker.image.rootfs.diff.tar.gzip"
)

// Descriptor references a content-addressed blob.
type Descriptor struct {
	MediaType string        `json:"mediaType"`
	Size      int64         `json:"size"`
	Digest    digest.Digest `json:"digest"`
}

// Manifest is a schema-2 image manifest.
type Manifest struct {
	SchemaVersion int          `json:"schemaVersion"`
	MediaType     string       `json:"mediaType"`
	Config        Descriptor   `json:"config"`
	Layers        []Descriptor `json:"layers"`
}

// Config is the image configuration blob the manifest's Config descriptor
// points at. Only the fields the paper's analyzer consumes ("OS and target
// architecture", §III-C) are modeled.
type Config struct {
	Architecture string `json:"architecture"`
	OS           string `json:"os"`
	Created      string `json:"created,omitempty"`
}

// Validation errors.
var (
	ErrBadSchemaVersion = errors.New("manifest: unsupported schema version")
	ErrBadMediaType     = errors.New("manifest: unexpected media type")
	ErrNoLayers         = errors.New("manifest: image has no layers")
	ErrBadDigest        = errors.New("manifest: invalid digest in descriptor")
)

// New builds a validated manifest from a config descriptor and layer
// descriptors.
func New(config Descriptor, layers []Descriptor) (*Manifest, error) {
	m := &Manifest{
		SchemaVersion: 2,
		MediaType:     MediaTypeManifest,
		Config:        config,
		Layers:        layers,
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Validate checks structural invariants of the manifest.
func (m *Manifest) Validate() error {
	if m.SchemaVersion != 2 {
		return fmt.Errorf("%w: %d", ErrBadSchemaVersion, m.SchemaVersion)
	}
	if m.MediaType != MediaTypeManifest {
		return fmt.Errorf("%w: %q", ErrBadMediaType, m.MediaType)
	}
	if len(m.Layers) == 0 {
		return ErrNoLayers
	}
	if !m.Config.Digest.Valid() {
		return fmt.Errorf("%w: config %q", ErrBadDigest, m.Config.Digest)
	}
	for i, l := range m.Layers {
		if !l.Digest.Valid() {
			return fmt.Errorf("%w: layer %d %q", ErrBadDigest, i, l.Digest)
		}
		if l.Size < 0 {
			return fmt.Errorf("manifest: layer %d has negative size %d", i, l.Size)
		}
	}
	return nil
}

// Marshal renders the manifest as canonical JSON (stable field order via
// struct encoding), the bytes whose digest identifies the manifest.
func (m *Manifest) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "   ")
	if err != nil {
		return nil, fmt.Errorf("manifest: marshaling: %w", err)
	}
	return b, nil
}

// Unmarshal parses and validates manifest JSON.
func Unmarshal(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("manifest: parsing: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// LayerDigests returns the digests of all layers in order.
func (m *Manifest) LayerDigests() []digest.Digest {
	out := make([]digest.Digest, len(m.Layers))
	for i, l := range m.Layers {
		out[i] = l.Digest
	}
	return out
}

// Repository is registry-side repository metadata. Docker Hub namespaces
// user repositories as <username>/<name> while official repositories use a
// bare <name> (§II-C).
type Repository struct {
	// Name is the full repository name, e.g. "nginx" or "alice/webapp".
	Name string `json:"name"`
	// Official reports whether this is an official (Docker-Inc-curated)
	// repository.
	Official bool `json:"official"`
	// PullCount is the cumulative number of pulls Docker Hub reports.
	PullCount int64 `json:"pull_count"`
	// Private marks repositories that require authentication to pull; the
	// paper found 13% of its download failures were auth-gated.
	Private bool `json:"private"`
	// Tags lists the repository's version tags. The paper downloads only
	// "latest"; 87% of its failures were repositories without that tag.
	Tags []string `json:"tags"`
}
