package kvcsd

import (
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"kvcsd/internal/array"
	"kvcsd/internal/client"
	"kvcsd/internal/compaction"
	"kvcsd/internal/core"
	"kvcsd/internal/device"
	"kvcsd/internal/golden"
	"kvcsd/internal/remote"
	"kvcsd/internal/replica"
	"kvcsd/internal/server"
	"kvcsd/internal/session"
)

// TestOptionFieldsGolden lists every settable value of the system's nine
// Options/Config structs (the calibration tables of modelled hardware — ssd,
// host, pcie, vfs, rocks — are not options of the system). Each one is a
// configuration the tests and the benchmark should cover, so a new one is a
// visible line in testdata/options.golden, the way a new verb is a line in
// internal/wire/testdata/verbs.golden.
func TestOptionFieldsGolden(t *testing.T) {
	var lines []string
	for _, v := range []any{
		server.Config{}, session.Config{}, array.Options{}, replica.Options{},
		remote.Options{}, core.Config{}, device.Options{}, compaction.Config{},
		client.RetryPolicy{},
	} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			lines = append(lines, typ.String()+"."+typ.Field(i).Name)
		}
	}
	sort.Strings(lines)
	golden.Check(t, filepath.Join("testdata", "options.golden"), []byte(strings.Join(lines, "\n")+"\n"))
}
