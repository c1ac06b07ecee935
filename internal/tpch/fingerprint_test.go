package tpch

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/storage"
)

// fingerprint hashes every value of every column of every table, in
// table-creation, column and row order (FNV-64a; floats by their bits,
// strings length-prefixed).
func fingerprint(db *DB) uint64 {
	h := fnv.New64a()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	for _, name := range []string{"region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem"} {
		snap := db.Snapshot(name)
		put(uint64(snap.NumTuples()))
		for c, def := range snap.Table().Schema {
			for _, pg := range snap.Pages(c) {
				switch def.Type {
				case storage.Int64:
					for _, v := range pg.I64 {
						put(uint64(v))
					}
				case storage.Float64:
					for _, v := range pg.F64 {
						put(math.Float64bits(v))
					}
				case storage.String:
					for _, v := range pg.Str {
						put(uint64(len(v)))
						h.Write([]byte(v))
					}
				}
			}
		}
	}
	return h.Sum64()
}

// TestGeneratorFingerprint pins the generated tables value for value. The
// expected hashes were recorded from the generator as it stood before its
// columns were pre-sized (the rule checkGolden follows: expectations come
// from the code before a refactor, never from the code under test), so a
// change to the rng draw order or to any value fails here, not in a
// golden three layers up.
func TestGeneratorFingerprint(t *testing.T) {
	want := map[int64][2]uint64{ // seed -> {unclustered, ClusteredShipdate}
		1:  {0x4391b32c1c3cc22, 0x90064c3ee56fe5fe},
		7:  {0x8cc8bc820ffc046, 0xa9cea3de0f4b1d78},
		42: {0xe0617a8838b7b62f, 0x92558d7cab746843},
	}
	for seed, w := range want {
		for i, clustered := range []bool{false, true} {
			got := fingerprint(GenerateOpt(0.01, seed, GenOptions{ClusteredShipdate: clustered}))
			if got != w[i] {
				t.Errorf("seed %d clustered=%v: fingerprint %#x, want %#x", seed, clustered, got, w[i])
			}
		}
	}
}
