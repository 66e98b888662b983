package manifest

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/digest"
)

func desc(seed uint64, size int64, mt string) Descriptor {
	return Descriptor{MediaType: mt, Size: size, Digest: digest.FromUint64(seed)}
}

func sample(t *testing.T) *Manifest {
	t.Helper()
	m, err := New(
		desc(1, 1500, MediaTypeConfig),
		[]Descriptor{desc(2, 1<<20, MediaTypeLayer), desc(3, 2<<20, MediaTypeLayer)},
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValid(t *testing.T) {
	m := sample(t)
	if m.SchemaVersion != 2 || m.MediaType != MediaTypeManifest {
		t.Fatalf("defaults wrong: %+v", m)
	}
}

func TestValidateErrors(t *testing.T) {
	base := sample(t)

	bad := *base
	bad.SchemaVersion = 1
	if err := bad.Validate(); !errors.Is(err, ErrBadSchemaVersion) {
		t.Errorf("schema version: %v", err)
	}

	bad = *base
	bad.MediaType = "application/json"
	if err := bad.Validate(); !errors.Is(err, ErrBadMediaType) {
		t.Errorf("media type: %v", err)
	}

	bad = *base
	bad.Layers = nil
	if err := bad.Validate(); !errors.Is(err, ErrNoLayers) {
		t.Errorf("no layers: %v", err)
	}

	bad = *base
	bad.Config.Digest = "sha256:short"
	if err := bad.Validate(); !errors.Is(err, ErrBadDigest) {
		t.Errorf("bad config digest: %v", err)
	}

	bad = *base
	bad.Layers = []Descriptor{{MediaType: MediaTypeLayer, Size: 10, Digest: "oops"}}
	if err := bad.Validate(); !errors.Is(err, ErrBadDigest) {
		t.Errorf("bad layer digest: %v", err)
	}

	bad = *base
	bad.Layers = []Descriptor{{MediaType: MediaTypeLayer, Size: -1, Digest: digest.FromUint64(9)}}
	if err := bad.Validate(); err == nil {
		t.Error("negative size accepted")
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(desc(1, 10, MediaTypeConfig), nil); err == nil {
		t.Fatal("New with no layers succeeded")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	m := sample(t)
	b, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), MediaTypeManifest) {
		t.Fatal("marshaled JSON missing media type")
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Layers) != 2 || got.Layers[0].Digest != m.Layers[0].Digest {
		t.Fatalf("round trip lost layers: %+v", got)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte("{")); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, err := Unmarshal([]byte(`{"schemaVersion": 1}`)); err == nil {
		t.Error("invalid manifest accepted")
	}
}

func TestDigestStable(t *testing.T) {
	m := sample(t)
	d1, err := m.Digest()
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := m.Digest()
	if d1 != d2 {
		t.Fatal("manifest digest not stable")
	}
	// Any change must alter the digest.
	m.Layers[0].Size++
	d3, _ := m.Digest()
	if d3 == d1 {
		t.Fatal("digest unchanged after mutation")
	}
}

func TestLayerDigests(t *testing.T) {
	m := sample(t)
	ds := m.LayerDigests()
	if len(ds) != 2 || ds[0] != digest.FromUint64(2) || ds[1] != digest.FromUint64(3) {
		t.Fatalf("LayerDigests = %v", ds)
	}
}

// FuzzManifest: a pushed manifest is outside input. Whatever the bytes,
// Unmarshal does not panic, and a manifest it accepts passes Validate,
// names only digests digest.Parse accepts, and survives a Marshal and
// Unmarshal round trip unchanged, marshalling again to the same bytes.
// The seed corpus is in testdata/fuzz/FuzzManifest.
func FuzzManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted manifest fails Validate: %v", err)
		}
		for _, d := range append([]Descriptor{m.Config}, m.Layers...) {
			if _, err := digest.Parse(string(d.Digest)); err != nil {
				t.Fatalf("accepted digest %q: %v", d.Digest, err)
			}
		}
		b, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("marshalled manifest refused: %v", err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip changed the manifest: %+v, want %+v", back, m)
		}
		again, err := back.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("marshalled twice to different bytes:\n%s\n%s", b, again)
		}
	})
}

// Digest returns the digest of the marshaled manifest, which is how
// registries address manifests ("pull by digest").
func (m *Manifest) Digest() (digest.Digest, error) {
	b, err := m.Marshal()
	if err != nil {
		return "", err
	}
	return digest.FromBytes(b), nil
}
