package fdw

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"testing"

	"crosse/internal/sqldb"
	"crosse/internal/sqlexec"
	"crosse/internal/sqlval"
)

// Property: for random tables and random equality filters, a remote scan
// returns exactly what a local scan returns — the FDW layer must be
// transparent.
func TestRemoteEqualsLocalOnRandomTables(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		remote := sqldb.NewDatabase()
		if _, err := sqlexec.Exec(remote, `CREATE TABLE t (k TEXT, n INT, f DOUBLE, b BOOLEAN)`, sqlexec.Options{}); err != nil {
			t.Fatal(err)
		}
		tab, _ := remote.Table("t")
		nRows := 20 + rng.Intn(80)
		for i := 0; i < nRows; i++ {
			row := []sqlval.Value{
				sqlval.NewString(fmt.Sprintf("k%d", rng.Intn(7))),
				sqlval.NewInt(int64(rng.Intn(100))),
				sqlval.NewFloat(rng.Float64() * 10),
				sqlval.NewBool(rng.Intn(2) == 0),
			}
			if rng.Intn(8) == 0 {
				row[2] = sqlval.Null
			}
			if err := tab.Insert(row); err != nil {
				t.Fatal(err)
			}
		}

		srv := NewServer(remote)
		a, b := net.Pipe()
		go srv.ServeConn(a)
		client := NewClient(b)

		ft, err := client.ForeignTable("t", "")
		if err != nil {
			t.Fatal(err)
		}

		render := func(rows [][]sqlval.Value) []string {
			var out []string
			for _, r := range rows {
				s := ""
				for _, v := range r {
					s += fmt.Sprintf("%d|%s;", v.Type(), v.String())
				}
				out = append(out, s)
			}
			sort.Strings(out)
			return out
		}

		var localRows, remoteRows [][]sqlval.Value
		tab.Scan(func(r []sqlval.Value) bool {
			localRows = append(localRows, append([]sqlval.Value(nil), r...))
			return true
		})
		if err := ft.Scan(func(r []sqlval.Value) bool {
			remoteRows = append(remoteRows, r)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(render(localRows), render(remoteRows)) {
			t.Fatalf("trial %d: full scan differs", trial)
		}

		// Random equality probes on each column.
		probes := []struct {
			col string
			v   sqlval.Value
		}{
			{"k", sqlval.NewString(fmt.Sprintf("k%d", rng.Intn(7)))},
			{"n", sqlval.NewInt(int64(rng.Intn(100)))},
			{"b", sqlval.NewBool(true)},
		}
		for _, p := range probes {
			var localHit, remoteHit [][]sqlval.Value
			if err := tab.ScanEq(p.col, p.v, func(r []sqlval.Value) bool {
				localHit = append(localHit, append([]sqlval.Value(nil), r...))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if err := ft.ScanEq(p.col, p.v, func(r []sqlval.Value) bool {
				remoteHit = append(remoteHit, r)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(render(localHit), render(remoteHit)) {
				t.Fatalf("trial %d: ScanEq(%s=%v) differs: local %d, remote %d",
					trial, p.col, p.v, len(localHit), len(remoteHit))
			}
		}
		client.Close()
	}
}
