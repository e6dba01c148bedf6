package mail

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/folder"
)

// TestMailboxConcurrentStress hammers one mailbox with concurrent deposits,
// lists, fetches, and deletes. Run under -race it flushes out unsynchronized
// cabinet access; without -race it still pins the lost-update invariant the
// old delete path violated: delete did Snapshot → Remove → Put, so a deposit
// landing between the snapshot and the put vanished. The in-place RemoveAt
// keeps the count exact: final = deposits − successful deletes.
func TestMailboxConcurrentStress(t *testing.T) {
	sys := mailSystem(t, 1)
	site := sys.SiteAt(0)
	const (
		depositors   = 4
		perDepositor = 200
		readers      = 2
		deleters     = 2
	)

	var deleted atomic.Int64
	var depWG, churnWG sync.WaitGroup
	stop := make(chan struct{})

	for d := 0; d < depositors; d++ {
		depWG.Add(1)
		go func(d int) {
			defer depWG.Done()
			for i := 0; i < perDepositor; i++ {
				msg := Message{
					From:    "sender@site-0",
					To:      "stress@site-0",
					Subject: fmt.Sprintf("d%d-%d", d, i),
					Body:    "x",
				}
				bc := folder.NewBriefcase()
				bc.PutString(OpFolder, "deposit")
				bc.PutString(UserFolder, "stress")
				bc.PutString(MsgFolder, msg.Encode())
				if err := site.Meet(context.Background(), AgMailbox, bc); err != nil {
					t.Errorf("deposit: %v", err)
					return
				}
			}
		}(d)
	}
	for r := 0; r < readers; r++ {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				bc := folder.NewBriefcase()
				bc.PutString(UserFolder, "stress")
				if i%2 == 0 {
					bc.PutString(OpFolder, "list")
				} else {
					bc.PutString(OpFolder, "fetch")
					bc.PutString(IndexFolder, "0")
				}
				// Errors are expected (fetch from an emptied mailbox); only
				// data races and lost messages are failures.
				_ = site.Meet(context.Background(), AgMailbox, bc)
			}
		}()
	}
	for k := 0; k < deleters; k++ {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				bc := folder.NewBriefcase()
				bc.PutString(OpFolder, "delete")
				bc.PutString(UserFolder, "stress")
				bc.PutString(IndexFolder, "0")
				if err := site.Meet(context.Background(), AgMailbox, bc); err == nil {
					deleted.Add(1)
				}
			}
		}()
	}

	depWG.Wait()
	close(stop)
	churnWG.Wait()

	total := int64(depositors * perDepositor)
	got := int64(site.Cabinet().FolderLen("MBOX:stress"))
	want := total - deleted.Load()
	if got != want {
		t.Fatalf("mailbox holds %d messages, want %d (%d deposited, %d deleted) — deposits lost to a delete race",
			got, want, total, deleted.Load())
	}
}
