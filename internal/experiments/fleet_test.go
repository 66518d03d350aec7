package experiments

import (
	"context"
	"errors"
	"testing"
)

// TestSoakShardEvictionByteIdentical extends the kill-after-round-k harness
// to shard eviction: a checkpointed campaign that evicts every runner at
// every barrier (ShardSize bound) produces a final report — including the
// telemetry snapshot and fleet trace — byte-identical to the keep-alive
// campaign, at workers 1 and 8; and a mid-campaign kill+resume under
// eviction still lands on the same bytes.
func TestSoakShardEvictionByteIdentical(t *testing.T) {
	ctx := context.Background()
	const every = 6
	for _, workers := range []int{1, 8} {
		refCfg := ckTestConfig(11, true)
		refCfg.Workers = workers
		refCfg.Checkpoint = &CheckpointOptions{Dir: t.TempDir(), EveryWindows: every}
		ref, err := Soak(ctx, refCfg)
		if err != nil {
			t.Fatal(err)
		}
		refJSON := reportJSON(t, ref)

		evictCfg := ckTestConfig(11, true)
		evictCfg.Workers = workers
		evictCfg.ShardSize = 1
		evictCfg.Checkpoint = &CheckpointOptions{Dir: t.TempDir(), EveryWindows: every}
		evicted, err := Soak(ctx, evictCfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := reportJSON(t, evicted); got != refJSON {
			t.Fatalf("workers=%d: shard-evicting campaign not byte-identical to keep-alive campaign", workers)
		}

		// Kill mid-campaign with eviction on, resume with a different shard
		// size (the knob is not part of the campaign identity): still the
		// same bytes.
		dir := t.TempDir()
		killCfg := ckTestConfig(11, true)
		killCfg.Workers = workers
		killCfg.ShardSize = 1
		killCfg.Checkpoint = &CheckpointOptions{Dir: dir, EveryWindows: every, StopAfterSegments: 2}
		if _, err := Soak(ctx, killCfg); !errors.Is(err, ErrInterrupted) {
			t.Fatalf("workers=%d: want ErrInterrupted, got %v", workers, err)
		}
		resumeCfg := ckTestConfig(11, true)
		resumeCfg.Workers = workers
		resumeCfg.ShardSize = 2
		resumeCfg.Checkpoint = &CheckpointOptions{Dir: dir, EveryWindows: every, Resume: true}
		resumed, err := Soak(ctx, resumeCfg)
		if err != nil {
			t.Fatalf("workers=%d: resume: %v", workers, err)
		}
		if got := reportJSON(t, resumed); got != refJSON {
			t.Fatalf("workers=%d: kill+resume under eviction not byte-identical to keep-alive campaign", workers)
		}
	}
}

// TestSoakPlainShardSizeParity covers the non-checkpointed path: ShardSize
// only clamps the pool there, so the report must be byte-identical with and
// without it.
func TestSoakPlainShardSizeParity(t *testing.T) {
	ctx := context.Background()
	base := testSoakConfig(9)
	base.Workers = 8
	ref, err := Soak(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	bounded := testSoakConfig(9)
	bounded.Workers = 8
	bounded.ShardSize = 1
	rep, err := Soak(ctx, bounded)
	if err != nil {
		t.Fatal(err)
	}
	if reportJSON(t, rep) != reportJSON(t, ref) {
		t.Fatal("shard-size-bounded plain campaign not byte-identical to unbounded")
	}
}

// TestSoakConfigShardValidation pins the soak knob's entry validation.
func TestSoakConfigShardValidation(t *testing.T) {
	cfg := testSoakConfig(1)
	cfg.ShardSize = -2
	if _, err := Soak(context.Background(), cfg); err == nil {
		t.Error("negative soak shard size not rejected")
	}
}
