#include "harness/txn_program.h"

#include <cstdlib>
#include <memory>
#include <string>

namespace vp::harness {

namespace {

// The program's state. Each pending operation callback holds a reference,
// so the program lives exactly as long as some callback may still fire.
struct Program : std::enable_shared_from_this<Program> {
  Program(core::NodeBase& n, std::vector<TxnOp> o,
          std::function<void(TxnResult)> d, TxnStepHook h)
      : node(n), ops(std::move(o)), done(std::move(d)), hook(std::move(h)) {
    result.txn = node.NewTxnId();
    node.Begin(result.txn);
  }

  /// Op `idx` (or the Commit) follows a completed op: the hook goes first.
  void Next(size_t idx) {
    if (!hook) {
      Issue(idx);
      return;
    }
    hook(idx, [self = shared_from_this(), idx](Status s) {
      if (s.ok()) {
        self->Issue(idx);
      } else {
        self->Finish(std::move(s));
      }
    });
  }

  void Issue(size_t idx) {
    if (idx == ops.size()) {
      node.Commit(result.txn, [self = shared_from_this()](Status s) {
        self->Finish(std::move(s));
      });
      return;
    }
    const TxnOp& op = ops[idx];
    if (op.kind == TxnOp::Kind::kWrite) {
      IssueWrite(idx, op.value);
      return;
    }
    if (op.kind == TxnOp::Kind::kUniqueWrite) {
      IssueWrite(idx, "w:" + result.txn.ToString() + ":" +
                          std::to_string(idx));
      return;
    }
    node.LogicalRead(
        result.txn, op.obj,
        [self = shared_from_this(), idx](Result<core::ReadResult> r) {
          if (!r.ok()) {
            self->Finish(r.status());
            return;
          }
          const Value& v = r.value().value;
          self->result.reads.push_back(v);
          const TxnOp& read_op = self->ops[idx];
          if (read_op.kind == TxnOp::Kind::kIncrement) {
            const int64_t n = std::strtoll(v.c_str(), nullptr, 10);
            self->IssueWrite(idx, std::to_string(n + read_op.delta));
          } else {
            self->Next(idx + 1);
          }
        });
  }

  void IssueWrite(size_t idx, Value value) {
    node.LogicalWrite(result.txn, ops[idx].obj, std::move(value),
                      [self = shared_from_this(), idx](Status s) {
                        if (!s.ok()) {
                          self->Finish(std::move(s));
                          return;
                        }
                        ++self->result.writes;
                        self->Next(idx + 1);
                      });
  }

  void Finish(Status decision) {
    result.committed = decision.ok();
    result.failure = std::move(decision);
    done(std::move(result));
  }

  core::NodeBase& node;
  const std::vector<TxnOp> ops;
  const std::function<void(TxnResult)> done;
  const TxnStepHook hook;
  TxnResult result;
};

}  // namespace

void StartTxnProgram(core::NodeBase& node, std::vector<TxnOp> ops,
                     std::function<void(TxnResult)> done,
                     TxnStepHook before_step) {
  std::make_shared<Program>(node, std::move(ops), std::move(done),
                            std::move(before_step))
      ->Issue(0);
}

}  // namespace vp::harness
