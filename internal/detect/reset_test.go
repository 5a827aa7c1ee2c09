package detect

import "testing"

// TestResetStatsKeepsTimingStorage: the measurement boundary zeroes the
// timing histograms in place instead of growing new ones.
func TestResetStatsKeepsTimingStorage(t *testing.T) {
	d := mustNew(t, ringNet(t), Config{Every: 50})
	d.DetectNow()
	if allocs := testing.AllocsPerRun(10, d.ResetStats); allocs != 0 {
		t.Errorf("ResetStats allocates %.0f times; want its histograms reused", allocs)
	}
	if n := d.Stats.DetectBuildTime.Count() + d.Stats.DetectAnalyzeTime.Count(); n != 0 {
		t.Errorf("%d timing samples survive ResetStats", n)
	}
	if allocs := testing.AllocsPerRun(10, func() { d.Stats.DetectAnalyzeTime.Observe(int64(timingGrowTo)) }); allocs != 0 {
		t.Errorf("observing a 1 s pass after ResetStats allocates %.0f times", allocs)
	}
}
