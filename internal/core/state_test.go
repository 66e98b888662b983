package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/digest"
	"repro/internal/manifest"
	"repro/internal/registry"
	"repro/internal/synth"
)

func TestHubStateRoundTrip(t *testing.T) {
	d, err := synth.Generate(synth.MaterializeSpec(0.0001))
	if err != nil {
		t.Fatal(err)
	}
	store := blobstore.NewMemory()
	reg := registry.New(store)
	mat, err := synth.Materialize(d, reg)
	if err != nil {
		t.Fatal(err)
	}
	st := BuildHubState(d, mat)
	if len(st.Repos) != len(d.Repos) {
		t.Fatalf("state has %d repos, want %d", len(st.Repos), len(d.Repos))
	}
	if len(st.Tags) != len(d.Images) {
		t.Fatalf("state has %d tagged repos, want %d", len(st.Tags), len(d.Images))
	}

	path := filepath.Join(t.TempDir(), "hubstate.json")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadHubState(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Seed != st.Seed || loaded.Scale != st.Scale {
		t.Fatal("state metadata lost in round trip")
	}
	if len(loaded.Repos) != len(st.Repos) || len(loaded.Tags) != len(st.Tags) {
		t.Fatal("state contents lost in round trip")
	}

	// Install into a fresh registry sharing the blob store.
	reg2 := registry.New(store)
	if err := loaded.Install(reg2); err != nil {
		t.Fatal(err)
	}
	for repo, tags := range loaded.Tags {
		got, err := reg2.Tags(repo)
		if err != nil {
			t.Fatalf("repo %s missing after install: %v", repo, err)
		}
		if len(got) != len(tags) {
			t.Fatalf("repo %s has %d tags, want %d", repo, len(got), len(tags))
		}
	}
}

func TestHubStateInstallMissingBlob(t *testing.T) {
	st := &HubState{
		Repos: []manifest.Repository{{Name: "x/y", Tags: []string{"latest"}}},
		Tags: map[string]map[string]digest.Digest{
			"x/y": {"latest": digest.FromUint64(99)},
		},
	}
	reg := registry.New(blobstore.NewMemory()) // empty store: blob missing
	if err := st.Install(reg); err == nil {
		t.Fatal("Install with missing manifest blob succeeded")
	}
}

func TestLoadHubStateErrors(t *testing.T) {
	if _, err := LoadHubState("/nonexistent/path.json"); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadHubState(bad); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestSaveErrors(t *testing.T) {
	st := &HubState{}
	if err := st.Save("/nonexistent-dir/x/y.json"); err == nil {
		t.Error("Save into missing directory succeeded")
	}
}
