package repl

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// TestHandshakeRefusesOldProtocol: a BFREPL02 peer — one that would send
// or expect gob-encoded resync snapshots — is refused at the handshake in
// both directions: the primary closes the connection without a reply,
// and a follower rejects an old-version reply.
func TestHandshakeRefusesOldProtocol(t *testing.T) {
	const oldMagic = "BFREPL02"
	hello := append([]byte(oldMagic), make([]byte, 8+8+1)...)
	binary.LittleEndian.PutUint64(hello[len(oldMagic)+8:], 1) // epoch 1

	_, addr := startServer(t, newPrimary(t))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("reading the primary's answer: %v", err)
	}
	if len(reply) != 0 {
		t.Fatalf("primary answered a %s hello with %q, want the connection closed", oldMagic, reply)
	}

	oldReply := append([]byte(oldMagic), make([]byte, 1+8+8)...)
	if _, _, _, err := readHelloReply(bytes.NewReader(oldReply)); err == nil ||
		!strings.Contains(err.Error(), oldMagic) {
		t.Fatalf("follower accepted a %s reply (err %v)", oldMagic, err)
	}
}
