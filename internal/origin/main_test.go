package origin

import (
	"testing"

	"summarycache/internal/testutil/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
