package gfs_test

import (
	"math/rand"
	"testing"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/org"
	"github.com/sjtucitlab/gfs/internal/timefeat"
)

func demandPanel() map[string][]float64 {
	cal := timefeat.NewCalendar()
	panel := map[string][]float64{}
	for i, cfg := range org.Presets() {
		rng := rand.New(rand.NewSource(int64(i) + 1))
		s := cfg.Series(cal, 0, 24*7, rng)
		// Scale the ≈75-GPU presets down to the 64-GPU test pool.
		for j := range s {
			s[j] *= 0.1
		}
		panel[cfg.Name] = s
	}
	return panel
}

func TestFacadeEndToEnd(t *testing.T) {
	cl := gfs.NewCluster("A100", 8, 8)
	if cl.TotalGPUs("") != 64 {
		t.Fatalf("capacity %v", cl.TotalGPUs(""))
	}
	cfg := gfs.DefaultTraceConfig()
	cfg.Days = 1
	cfg.ClusterGPUs = 64
	cfg.HPLoad = 0.5
	cfg.SpotLoad = 0.2
	cfg.MaxDuration = 4 * gfs.Hour
	tasks := gfs.GenerateTrace(cfg)
	if len(tasks) == 0 {
		t.Fatal("empty trace")
	}

	est, err := gfs.TrainEstimator(gfs.EstimatorConfig{
		History: 48, Horizon: 4, Model: gfs.NewOrgLinearFast(4),
	}, demandPanel(), 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := gfs.DefaultOptions()
	opts.Estimator = est
	sys := gfs.NewSystem(opts)
	res := gfs.NewEngine(cl, gfs.WithSystem(sys)).Run(tasks)
	if res.HP.Count == 0 || res.Spot.Count == 0 {
		t.Fatal("missing task classes")
	}
	if res.HP.EvictionRate != 0 {
		t.Fatal("HP never evicted")
	}
	if res.AllocationRate <= 0 {
		t.Fatal("allocation rate should be positive")
	}
}

func TestFacadeBaselines(t *testing.T) {
	for _, s := range []gfs.Scheduler{
		gfs.NewYARNCS(), gfs.NewChronus(), gfs.NewLyra(),
		gfs.NewFGD(), gfs.NewStaticFirstFit(),
	} {
		cl := gfs.NewCluster("A100", 4, 8)
		tasks := []*gfs.Task{
			gfs.NewTask(1, gfs.HP, 1, 8, gfs.Hour),
			gfs.NewTask(2, gfs.Spot, 1, 4, 30*gfs.Minute),
		}
		res := gfs.NewEngine(cl, gfs.WithScheduler(s), gfs.WithQuota(gfs.UnlimitedQuota())).Run(tasks)
		if res.UnfinishedHP != 0 || res.UnfinishedSpot != 0 {
			t.Fatalf("%s: unfinished tasks", s.Name())
		}
	}
}

func TestFacadeStaticQuota(t *testing.T) {
	cl := gfs.NewCluster("A100", 2, 8)
	tasks := []*gfs.Task{
		gfs.NewTask(1, gfs.Spot, 1, 8, 30*gfs.Minute),
		gfs.NewTask(2, gfs.Spot, 1, 8, 30*gfs.Minute),
	}
	res := gfs.NewEngine(cl, gfs.WithScheduler(gfs.NewStaticFirstFit()), gfs.WithQuota(gfs.StaticQuota(0.5))).Run(tasks)
	if res.UnfinishedSpot != 0 {
		t.Fatal("spot tasks should serialize under the quota, not stall")
	}
	if tasks[1].FirstStart == 0 {
		t.Fatal("quota should defer the second task")
	}
}

func TestFacadeHeterogeneousCluster(t *testing.T) {
	cl := gfs.NewHeterogeneousCluster([]gfs.Pool{
		{Model: "A10", Nodes: 4, GPUsPerNode: 1},
		{Model: "A100", Nodes: 2, GPUsPerNode: 8},
	})
	if cl.TotalGPUs("A10") != 4 || cl.TotalGPUs("A100") != 16 {
		t.Fatal("pool capacities wrong")
	}
	tk := gfs.NewTask(1, gfs.HP, 1, 8, gfs.Hour)
	tk.GPUModel = "A100"
	res := gfs.NewEngine(cl, gfs.WithScheduler(gfs.NewYARNCS())).Run([]*gfs.Task{tk})
	if res.UnfinishedHP != 0 {
		t.Fatal("model-constrained task should run on the A100 pool")
	}
}

func TestFacadeForecasters(t *testing.T) {
	models := []gfs.Forecaster{
		gfs.NewDLinear(), gfs.NewTransformer(), gfs.NewInformer(),
		gfs.NewAutoformer(), gfs.NewFEDformer(),
	}
	names := map[string]bool{}
	for _, m := range models {
		names[m.Name()] = true
	}
	for _, want := range []string{"DLinear", "Transformer", "Informer", "Autoformer", "FEDformer"} {
		if !names[want] {
			t.Fatalf("missing forecaster %s", want)
		}
	}
	if gfs.NewOrgLinear().Name() != "OrgLinear" || gfs.NewDeepAR().Name() != "DeepAR" {
		t.Fatal("distributional constructors broken")
	}
}
