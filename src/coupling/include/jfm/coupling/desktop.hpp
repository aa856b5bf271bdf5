#pragma once
// DesktopShell: the JCF desktop as a scriptable command surface.
//
// The paper's designers drive two user interfaces (s3.4): the FMCAD
// tool windows and the JCF desktop. This is the latter -- a line-
// oriented command language over the hybrid framework, suitable for
// administration scripts, examples and for counting desktop
// interactions. One executed command line == one desktop step.
//
// Command language ('#' starts a comment):
//   designer <name>
//   project <name>
//   cell <project> <cell> <designer>
//   declare-child <project> <parent> <child>
//   define-flow <name> <act1,act2,...> [<before>after pairs: a>b,c>d]
//   set-flow <project> <cell> <flow>
//   reserve <project> <cell> <designer>
//   publish <project> <cell> <designer>
//   share <to-project> <from-project> <cell>
//   edit <tool-command> [args...]        (queued for the next run)
//   run <project> <cell> <activity> <designer> [force]
//   checkout <project> <cell> <designer>   (batched hierarchy export)
//   derivations <project> <cell>
//   check <project>
//   echo <text...>

#include <string>
#include <vector>

#include "jfm/coupling/hybrid.hpp"

namespace jfm::coupling {

struct DesktopResult {
  std::size_t commands_executed = 0;  ///< desktop steps taken
  std::vector<std::string> transcript;
};

class DesktopShell {
 public:
  explicit DesktopShell(HybridFramework* hybrid) : hybrid_(hybrid) {}

  /// Execute one command line. Errors are reported in the transcript
  /// AND returned, so scripts can choose to stop or continue.
  support::Status execute_line(std::string_view line, DesktopResult& result);

  /// Execute a whole script; stops at the first failing command unless
  /// `keep_going` is set.
  support::Result<DesktopResult> run_script(const std::string& script,
                                            bool keep_going = false);

 private:
  support::Status dispatch(const std::vector<std::string>& words, DesktopResult& result);

  HybridFramework* hybrid_;
  std::vector<ToolCommand> pending_edits_;
};

}  // namespace jfm::coupling
