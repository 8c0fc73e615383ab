package mbavf

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mbavf/internal/inject"
)

func TestRunCampaignCheckpointResume(t *testing.T) {
	c, err := NewInjectionCampaignContext(context.Background(), "vecadd")
	if err != nil {
		t.Fatal(err)
	}
	const n, seed = 16, 3

	ref, refSum, err := c.RunCampaign(context.Background(), CampaignRunConfig{
		Injections: n, Seed: seed, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if refSum.Classified() != n {
		t.Fatalf("reference run classified %d/%d", refSum.Classified(), n)
	}

	// Complete once with checkpointing, then truncate the checkpoint to
	// its first five shots — the state an interrupted run leaves behind —
	// and resume from it.
	path := filepath.Join(t.TempDir(), "vecadd.ckpt.json")
	if _, _, err := c.RunCampaign(context.Background(), CampaignRunConfig{
		Injections: n, Seed: seed, Workers: 2, CheckpointPath: path, CheckpointEvery: 4,
	}); err != nil {
		t.Fatal(err)
	}
	ck, err := inject.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Shots) != n {
		t.Fatalf("checkpoint holds %d/%d shots", len(ck.Shots), n)
	}
	ck.Shots = ck.Shots[:5]
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}

	resumed, resSum, err := c.RunCampaign(context.Background(), CampaignRunConfig{
		Injections: n, Seed: seed, Workers: 4, CheckpointPath: path, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, resumed) || refSum != resSum {
		t.Fatal("resumed campaign differs from uninterrupted run")
	}
}

func TestRunCampaignResumeRejectsMismatch(t *testing.T) {
	c, err := NewInjectionCampaignContext(context.Background(), "vecadd")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.json")
	if _, _, err := c.RunCampaign(context.Background(), CampaignRunConfig{
		Injections: 4, Seed: 1, CheckpointPath: path,
	}); err != nil {
		t.Fatal(err)
	}
	// Same file, different seed: the golden-digest/identity check must
	// refuse to resume rather than silently mix campaigns.
	if _, _, err := c.RunCampaign(context.Background(), CampaignRunConfig{
		Injections: 4, Seed: 2, CheckpointPath: path, Resume: true,
	}); err == nil {
		t.Fatal("resume accepted a checkpoint from a different campaign")
	}
}

// TestRunCampaignResumeRejectsTamperedShot: a checkpoint whose identity
// matches but one of whose shots targets something other than what its
// (seed, index) samples is refused with inject.ErrForeignShot before any
// shot runs, locally and on the fabric, and is left on disk untouched.
func TestRunCampaignResumeRejectsTamperedShot(t *testing.T) {
	c, err := NewInjectionCampaignContext(context.Background(), "vecadd")
	if err != nil {
		t.Fatal(err)
	}
	const n, seed = 8, 3
	path := filepath.Join(t.TempDir(), "vecadd.ckpt.json")
	if _, _, err := c.RunCampaign(context.Background(), CampaignRunConfig{
		Injections: n, Seed: seed, CheckpointPath: path,
	}); err != nil {
		t.Fatal(err)
	}
	ck, err := inject.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ck.Shots = ck.Shots[:4]
	ck.Shots[2].Target.Bit ^= 1
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	tampered, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, fab := range []*FabricOptions{nil, {Workers: []string{startFabricWorker(t)}}} {
		ran := 0
		results, _, err := c.RunCampaign(context.Background(), CampaignRunConfig{
			Injections: n, Seed: seed, CheckpointPath: path, Resume: true, Fabric: fab,
			Progress: func(int, int) { ran++ },
		})
		if !errors.Is(err, inject.ErrForeignShot) {
			t.Errorf("fabric=%v: err = %v, want ErrForeignShot", fab != nil, err)
		}
		if ran != 0 || results != nil {
			t.Errorf("fabric=%v: %d shots ran, %d results returned after the rejection", fab != nil, ran, len(results))
		}
		if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, tampered) {
			t.Errorf("fabric=%v: rejected checkpoint was rewritten (%v)", fab != nil, err)
		}
	}
}
