package experiments

import "testing"

// Each experiment must reproduce its paper artifact's shape. These tests
// use a reduced scale; cmd/experiments runs DefaultScale or PaperScale.
func testScale() Scale {
	sc := DefaultScale()
	sc.Samples = 400
	sc.TrialsBase = 40
	sc.TrialsModules = 4
	sc.UserEntropyBits = 13
	sc.AzureMaxSlot = 4000
	sc.KVASMaxSlot = 512
	sc.BehaviorSeconds = 60
	return sc
}

func check(t *testing.T, r Report) {
	t.Helper()
	t.Logf("\n%s", r.String())
	if !r.OK {
		t.Errorf("%s: shape mismatch: %s", r.ID, r.Measured)
	}
}

func TestFig1(t *testing.T)         { check(t, Fig1FaultSuppression(testScale())) }
func TestFig2(t *testing.T)         { check(t, Fig2PageTypes(testScale())) }
func TestFig2bLevels(t *testing.T)  { check(t, Fig2bPageTableLevels(testScale())) }
func TestFig2cTLB(t *testing.T)     { check(t, Fig2cTLBState(testScale())) }
func TestFig3(t *testing.T)         { check(t, Fig3Permissions(testScale())) }
func TestFig3bP6(t *testing.T)      { check(t, Fig3bLoadVsStore(testScale())) }
func TestFig4(t *testing.T)         { check(t, Fig4KernelBaseScan(testScale())) }
func TestTable1(t *testing.T)       { check(t, Table1(testScale())) }
func TestFig5(t *testing.T)         { check(t, Fig5ModuleIdent(testScale())) }
func TestSec4dKPTI(t *testing.T)    { check(t, Sec4dKPTI(testScale())) }
func TestFig6(t *testing.T)         { check(t, Fig6BehaviorSpy(testScale())) }
func TestFig7SGX(t *testing.T)      { check(t, Fig7SGXFineGrained(testScale())) }
func TestSec4gWindows(t *testing.T) { check(t, Sec4gWindows(testScale())) }
func TestSec4hCloud(t *testing.T)   { check(t, Sec4hCloud(testScale())) }
func TestSec5Defenses(t *testing.T) { check(t, Sec5Defenses(testScale())) }
func TestBaselines(t *testing.T)    { check(t, BaselineComparison(testScale())) }
