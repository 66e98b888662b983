package synth

import (
	"bytes"
	"compress/gzip"
	"slices"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/registry"
	"repro/internal/tarutil"
)

func TestMaterializePopulatesRegistry(t *testing.T) {
	d, err := Generate(MaterializeSpec(0.0001))
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(blobstore.NewMemory())
	mat, err := Materialize(d, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(mat.LayerDigests) != len(d.Layers) {
		t.Fatalf("materialized %d layers, want %d", len(mat.LayerDigests), len(d.Layers))
	}
	for i, dg := range mat.LayerDigests {
		if !reg.Blobs().Has(dg) {
			t.Fatalf("layer %d blob missing", i)
		}
	}
	var total int64
	for _, s := range mat.LayerSizes {
		total += s
	}
	if total != mat.TotalBytes {
		t.Fatalf("TotalBytes %d != sum of sizes %d", mat.TotalBytes, total)
	}
	// Every downloadable repo has a latest manifest; others have none.
	for i := range d.Repos {
		r := &d.Repos[i]
		_, err := reg.ResolveTag(r.Name, "latest")
		if r.Downloadable() && err != nil {
			t.Fatalf("repo %s missing latest: %v", r.Name, err)
		}
		if !r.Downloadable() && err == nil {
			t.Fatalf("failed repo %s has latest tag", r.Name)
		}
	}
}

func TestRepositoriesMetadata(t *testing.T) {
	d, err := Generate(DefaultSpec(0.0002))
	if err != nil {
		t.Fatal(err)
	}
	repos := Repositories(d)
	if len(repos) != len(d.Repos) {
		t.Fatalf("repositories = %d, want %d", len(repos), len(d.Repos))
	}
	for i := range repos {
		if repos[i].Name != d.Repos[i].Name {
			t.Fatal("name order broken")
		}
		hasLatest := slices.Contains(repos[i].Tags, "latest")
		if hasLatest != d.Repos[i].HasLatest {
			t.Fatalf("repo %s latest mismatch", repos[i].Name)
		}
		if repos[i].PullCount != d.Repos[i].Pulls {
			t.Fatal("pull count lost")
		}
	}
}

func TestFileContentDeterministicAndTyped(t *testing.T) {
	d, err := Generate(MaterializeSpec(0.0001))
	if err != nil {
		t.Fatal(err)
	}
	for f := FileID(0); f < FileID(len(d.Files)) && f < 50; f++ {
		a, b := FileContent(d, f), FileContent(d, f)
		if !bytes.Equal(a, b) {
			t.Fatalf("file %d content not deterministic", f)
		}
		if int64(len(a)) != d.Files[f].Size {
			t.Fatalf("file %d rendered %d bytes, model size %d", f, len(a), d.Files[f].Size)
		}
	}
}

func TestEmptyLayerBlobIsEmptyGzipTar(t *testing.T) {
	d, err := Generate(MaterializeSpec(0.0001))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := RenderLayer(d, d.EmptyLayer, new(tarutil.Builder))
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer zr.Close()
	if len(blob) > 64 {
		t.Fatalf("empty layer blob is %d bytes", len(blob))
	}
}
