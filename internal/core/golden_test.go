package core

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"repro/internal/dataset"
)

// Golden pins for the point-reads deployment boot: DefaultStreamConfig(1)
// on 2 shards. The values were recorded before the allocation-lean
// rasterisation and covariance propagation landed, so any optimisation of
// the mission flight (EKF) or of the REM rasterisation (kNN batch path)
// must reproduce them bit for bit (determinism rules 6–8).
const (
	goldenDatasetSamples = 2626
	goldenDatasetFNV     = 0x53944c8fa38fb1c5
	goldenSnapshotBytes  = 260777
	goldenSnapshotFNV    = 0xfc7374b5045d202d
)

// datasetFNV hashes a canonical encoding of every sample field — the
// float fields by their IEEE-754 bits and the time in nanoseconds — so
// the hash moves if any annotated position, reading or order changes.
func datasetFNV(d *dataset.Dataset) uint64 {
	h := fnv.New64a()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		io.WriteString(h, s)
	}
	u64(uint64(len(d.Samples)))
	for _, s := range d.Samples {
		str(s.UAV)
		u64(uint64(s.Waypoint))
		u64(uint64(s.Time))
		for _, f := range [...]float64{s.X, s.Y, s.Z, s.TrueX, s.TrueY, s.TrueZ} {
			u64(math.Float64bits(f))
		}
		str(s.MAC)
		str(s.SSID)
		u64(uint64(s.RSSI))
		u64(uint64(s.Channel))
	}
	return h.Sum64()
}

// TestBootGolden flies the seed-1 mission, streams it onto 2 shards and
// pins both the mission dataset and the merged snapshot's codec bytes.
func TestBootGolden(t *testing.T) {
	cfg := DefaultStreamConfig(1)
	cfg.Shards = 2
	cfg.Workers = 2
	res, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, h := res.Data.Len(), datasetFNV(res.Data); n != goldenDatasetSamples || h != goldenDatasetFNV {
		t.Errorf("mission dataset: %d samples, FNV-64a %016x; want %d, %016x", n, h, goldenDatasetSamples, uint64(goldenDatasetFNV))
	}
	m, err := res.Sharded.MergedSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	n, err := m.WriteTo(h)
	if err != nil {
		t.Fatal(err)
	}
	if n != goldenSnapshotBytes || h.Sum64() != goldenSnapshotFNV {
		t.Errorf("merged snapshot: %d B, FNV-64a %016x; want %d B, %016x", n, h.Sum64(), goldenSnapshotBytes, uint64(goldenSnapshotFNV))
	}
}
