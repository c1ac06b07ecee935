package server

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/exec"
	"repro/internal/storage"
)

// This file keeps the value-at-a-time encoder that encodeBatch replaced,
// as the oracle of the differential tests: refEncodeBatch and
// refAppendFloat are the parent's encodeBatch and appendFloat, whose
// bytes TestNDJSONBodiesUnchanged pinned, with strings rendered by
// encoding/json itself.

func refEncodeBatch(out []byte, b *exec.Batch) []byte {
	for i := 0; i < b.N; i++ {
		out = append(out, '[')
		for j, v := range b.Vecs {
			if j > 0 {
				out = append(out, ',')
			}
			switch v.T {
			case storage.Int64:
				out = strconv.AppendInt(out, v.I64[i], 10)
			case storage.Float64:
				out = refAppendFloat(out, v.F64[i])
			default:
				out = refAppendString(out, v.Str[i])
			}
		}
		out = append(out, ']', '\n')
	}
	return out
}

func refAppendFloat(out []byte, f float64) []byte {
	if i := int64(f); float64(i) == f && -1e6 < i && i < 1e6 && (i != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(out, i, 10)
	}
	if k := int64(math.Round(f * 100)); float64(k)/100 == f && -1e8 < k && k < 1e8 && k != 0 {
		if k < 0 {
			out, k = append(out, '-'), -k
		}
		out = strconv.AppendInt(out, k/100, 10)
		out = append(out, '.', byte('0'+k%100/10))
		if d := k % 10; d != 0 {
			out = append(out, byte('0'+d))
		}
		return out
	}
	return strconv.AppendFloat(out, f, 'g', -1, 64)
}

// refAppendString is encoding/json's rendering of s with HTML escaping
// off, the escaping a JSON string needs and no more.
func refAppendString(out []byte, s string) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(s); err != nil {
		panic(err)
	}
	return append(out, bytes.TrimSuffix(buf.Bytes(), []byte{'\n'})...)
}
