package core

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/digest"
	"repro/internal/manifest"
	"repro/internal/registry"
	"repro/internal/synth"
)

// HubState is the serializable description of a materialized hub: the
// repository metadata the search API serves and the tag → manifest-digest
// mapping the registry serves. Blob content lives in a blobstore.Disk next
// to it.
type HubState struct {
	// Scale and Seed record the generating spec for reproducibility.
	Scale float64 `json:"scale"`
	Seed  int64   `json:"seed"`
	// Repos is the full repository population (including private and
	// no-latest repositories).
	Repos []manifest.Repository `json:"repos"`
	// Tags maps repository → tag → manifest digest.
	Tags map[string]map[string]digest.Digest `json:"tags"`
}

// BuildHubState captures a materialized dataset's registry state.
func BuildHubState(d *synth.Dataset, mat *synth.Materialized) *HubState {
	st := &HubState{
		Scale: d.Spec.Scale,
		Seed:  d.Spec.Seed,
		Repos: synth.Repositories(d),
		Tags:  make(map[string]map[string]digest.Digest),
	}
	for i := range d.Repos {
		r := &d.Repos[i]
		if !r.Downloadable() {
			continue
		}
		st.Tags[r.Name] = map[string]digest.Digest{
			"latest": mat.ManifestDigests[r.Image],
		}
	}
	return st
}

// Save writes the state as JSON.
func (st *HubState) Save(path string) error {
	data, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		return fmt.Errorf("core: encoding hub state: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("core: writing hub state: %w", err)
	}
	return nil
}

// LoadHubState reads a state file.
func LoadHubState(path string) (*HubState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: reading hub state: %w", err)
	}
	var st HubState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("core: decoding hub state: %w", err)
	}
	return &st, nil
}

// Install registers the state's repositories and tags in a registry whose
// blob store already holds the referenced manifests.
func (st *HubState) Install(reg *registry.Registry) error {
	for i := range st.Repos {
		r := &st.Repos[i]
		reg.CreateRepo(r.Name, r.Private)
		for tag, d := range st.Tags[r.Name] {
			if err := reg.SetTag(r.Name, tag, d); err != nil {
				return fmt.Errorf("core: restoring %s:%s: %w", r.Name, tag, err)
			}
		}
	}
	return nil
}
