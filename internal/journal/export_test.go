package journal

// The Log's writes are the Pair's; these expose them to the package's
// external tests.

func (l *Log) Append(payloads ...[]byte) error         { return l.append(true, payloads...) }
func (l *Log) AppendUnsynced(payloads ...[]byte) error { return l.append(false, payloads...) }
func (l *Log) Rewrite(payloads ...[]byte) error        { return l.rewrite(payloads...) }
