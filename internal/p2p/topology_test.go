package p2p

import "testing"

func TestTable1Contents(t *testing.T) {
	rows := Table1()
	if len(rows) != 6 {
		t.Fatalf("Table 1 rows = %d, want 6", len(rows))
	}
	byName := map[string][3]string{}
	for _, r := range rows {
		byName[r.Property] = r.Values
	}
	// Spot checks against the paper's table.
	if v := byName["Manageable"]; v != [3]string{"yes", "no", "no"} {
		t.Errorf("Manageable = %v", v)
	}
	if v := byName["Scalable"]; v != [3]string{"depend", "maybe", "apparently"} {
		t.Errorf("Scalable = %v", v)
	}
	if v := byName["Fault-Tolerant"]; v[0] != "no" || v[1] != "yes" {
		t.Errorf("Fault-Tolerant = %v", v)
	}
}

func TestServentAccessors(t *testing.T) {
	w := newWorld(t, worldSpec{
		seed:  81,
		pts:   cliquePts(2),
		alg:   Regular,
		quals: []float64{0.3, 0.7},
	})
	sv := w.svs[1]
	if sv.ID() != 1 {
		t.Errorf("ID = %d", sv.ID())
	}
	if sv.Algorithm() != Regular {
		t.Errorf("Algorithm = %v", sv.Algorithm())
	}
	if sv.Qualifier() != 0.7 {
		t.Errorf("Qualifier = %v", sv.Qualifier())
	}
	w.joinAll()
	w.run(time(120))
	if sv.established == 0 {
		t.Error("established = 0 after pairing")
	}
	w.svs[0].Leave(true)
	w.run(time(5))
	if sv.closed == 0 {
		t.Error("closed = 0 after peer left")
	}
}
