package bench

import (
	"testing"

	"summarycache/internal/testutil/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
