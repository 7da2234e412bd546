package main

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cbnet/internal/dataset"
	"cbnet/internal/engine"
	"cbnet/internal/models"
	"cbnet/internal/rng"
	"cbnet/internal/serve"
)

// writeCheckpoints produces a minimal untrained checkpoint set so the serve
// CLI's load path can be exercised without a training run.
func writeCheckpoints(t *testing.T, dir string, family dataset.Family) {
	t.Helper()
	r := rng.New(1)
	b := models.NewBranchyLeNet(r, models.DefaultThreshold(family))
	if err := models.SaveBranchy(filepath.Join(dir, "branchy.ck"), b); err != nil {
		t.Fatal(err)
	}
	ae := models.NewTableIAE(family, r)
	if err := models.SaveFile(filepath.Join(dir, "ae.ck"), ae.Net); err != nil {
		t.Fatal(err)
	}
}

func TestFamilyByName(t *testing.T) {
	for name, want := range map[string]dataset.Family{
		"mnist":  dataset.MNIST,
		"fmnist": dataset.FashionMNIST,
		"kmnist": dataset.KMNIST,
	} {
		got, err := dataset.FamilyByName(name)
		if err != nil || got != want {
			t.Fatalf("FamilyByName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := dataset.FamilyByName("svhn"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestValidateEngineConfig(t *testing.T) {
	valid := engine.Config{HardnessThreshold: engine.DefaultHardnessThreshold}
	if err := validateEngineConfig(valid); err != nil {
		t.Fatalf("default-threshold config should be valid: %v", err)
	}
	thr := engine.DefaultHardnessThreshold
	bad := []engine.Config{
		{MaxBatch: -1, HardnessThreshold: thr},
		{Workers: -2, HardnessThreshold: thr},
		{QueueDepth: -1, HardnessThreshold: thr},
		{HardnessThreshold: -0.5},
		// 0 would silently become the default inside the engine, so the
		// CLI rejects it outright.
		{HardnessThreshold: 0},
	}
	for i, cfg := range bad {
		if err := validateEngineConfig(cfg); err == nil {
			t.Errorf("config %d (%+v) should be rejected", i, cfg)
		}
	}
}

func TestBuildServerFromCheckpoints(t *testing.T) {
	dir := t.TempDir()
	writeCheckpoints(t, dir, dataset.FashionMNIST)
	srv, err := buildServer(dir, "fmnist", "RaspberryPi4", engine.Config{Workers: 1, HardnessThreshold: engine.DefaultHardnessThreshold}, serve.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Family != dataset.FashionMNIST || srv.Profile.Name != "RaspberryPi4" {
		t.Fatalf("server misconfigured: family %v, profile %s", srv.Family, srv.Profile.Name)
	}
	if srv.Engine == nil || srv.Engine.Config().Workers != 1 {
		t.Fatalf("engine config not applied")
	}
}

func TestBuildServerMountsDegradeLadder(t *testing.T) {
	dir := t.TempDir()
	writeCheckpoints(t, dir, dataset.MNIST)
	cfg := engine.Config{
		Workers:           1,
		HardnessThreshold: engine.DefaultHardnessThreshold,
		Degrade:           engine.DegradeConfig{Enabled: true},
	}
	srv, err := buildServer(dir, "mnist", "RaspberryPi4", cfg, serve.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ladder := srv.Engine.DegradeLadder()
	if want := []string{"hard", "easy", "pruned"}; !slices.Equal(ladder, want) {
		t.Fatalf("ladder %v, want %v: -degrade mounts the pruned variant as the last route", ladder, want)
	}
}

func TestBuildServerRejectsUnknownDataset(t *testing.T) {
	if _, err := buildServer(t.TempDir(), "svhn", "RaspberryPi4", engine.Config{}, serve.Options{}, false); err == nil {
		t.Fatal("expected dataset error")
	}
}

func TestBuildServerRejectsUnknownDevice(t *testing.T) {
	dir := t.TempDir()
	writeCheckpoints(t, dir, dataset.MNIST)
	if _, err := buildServer(dir, "mnist", "Cray-1", engine.Config{HardnessThreshold: engine.DefaultHardnessThreshold}, serve.Options{}, false); err == nil {
		t.Fatal("expected device error")
	}
}

func TestBuildServerRejectsBadEngineConfig(t *testing.T) {
	dir := t.TempDir()
	writeCheckpoints(t, dir, dataset.MNIST)
	if _, err := buildServer(dir, "mnist", "RaspberryPi4", engine.Config{MaxBatch: -4, HardnessThreshold: engine.DefaultHardnessThreshold}, serve.Options{}, false); err == nil {
		t.Fatal("expected engine-config error")
	}
}

func TestBuildServerMissingCheckpoint(t *testing.T) {
	_, err := buildServer(t.TempDir(), "mnist", "RaspberryPi4", engine.Config{HardnessThreshold: engine.DefaultHardnessThreshold}, serve.Options{}, false)
	if err == nil {
		t.Fatal("expected missing-checkpoint error")
	}
	if !strings.Contains(err.Error(), "branchy.ck") {
		t.Fatalf("error %q should name the missing checkpoint", err)
	}
}
