package experiments

import (
	"strings"
	"testing"
)

// The heavier harnesses (many FL runs each) are exercised at very small
// scale; -short skips them.

func TestFig5Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: 10 FL runs")
	}
	res, err := Fig5(tinyOpts(0.08))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeviceNames) != 9 {
		t.Fatalf("device series %d", len(res.DeviceNames))
	}
	if !strings.Contains(res.String(), "LODO") {
		t.Fatal("rendering broken")
	}
	pinTable(t, res, "9d1fd5969b572ebfae553c8d9eae66474737d1fd186a4cdcf11ee58605a13b59")
}

func TestFig9Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: 12 FL runs")
	}
	res, err := Fig9(tinyOpts(0.06))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sweeps) != 4 {
		t.Fatalf("sweeps %d", len(res.Sweeps))
	}
	for _, sw := range res.Sweeps {
		if len(sw.Values) != 3 || len(sw.Acc) != 3 {
			t.Fatalf("sweep %s malformed", sw.Param)
		}
	}
	pinTable(t, res, "8d211241aa7e7bf18bb4663f2bca2a88b922df61715f79e6c7dc2542238846c3")
}

func TestTable4Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: 7 FL runs with MobileNet")
	}
	res, err := Table4(tinyOpts(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != 7 {
		t.Fatalf("methods %d, want 7", len(res.Scores))
	}
	wantOrder := []string{"FedAvg", "ISP-Transformation", "ISP+SWAD", "HeteroSwitch", "q-FedAvg", "FedProx", "Scaffold"}
	for i, w := range wantOrder {
		if res.Scores[i].Method != w {
			t.Fatalf("row %d = %s, want %s", i, res.Scores[i].Method, w)
		}
		if len(res.Scores[i].PerDevice) != 9 {
			t.Fatalf("%s per-device length %d", w, len(res.Scores[i].PerDevice))
		}
	}
}

func TestTable5Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: 6 FL runs across architectures")
	}
	res, err := Table5(tinyOpts(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("architectures %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.FedAvg.Method != "FedAvg" || row.Hetero.Method != "HeteroSwitch" {
			t.Fatalf("row method names: %+v", row)
		}
	}
}

func TestAblationSwitchesStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: 4 FL runs")
	}
	res, err := AblationSwitches(tinyOpts(0.06))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != 4 {
		t.Fatalf("variants %d", len(res.Scores))
	}
}

func TestFig2RunsRAWMode(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: 9 central trainings")
	}
	res, err := Fig2(tinyOpts(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.String(), "RAW") {
		t.Fatal("Fig2 should label itself as RAW")
	}
}

func TestUnseenDGStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: 2 FL runs + unseen captures")
	}
	res, err := UnseenDG(tinyOpts(0.08))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UnseenNames) != 3 || len(res.Rows) != 2 {
		t.Fatalf("structure: %d unseen, %d rows", len(res.UnseenNames), len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.UnseenMin > row.UnseenAvg {
			t.Fatal("worst unseen accuracy above average")
		}
	}
	pinTable(t, res, "27aaf99f18c9494ee4b185c408dd6b3f2de767764c6c4d22177684f75cbe9eec")
}
