#include "src/tcl/interp.hpp"

namespace dovado::tcl {

Interp::Interp() {
  register_command("set", [](Interp& in, const std::vector<std::string>& a) -> std::string {
    if (a.size() == 2) return in.get_var(a[1]);
    if (a.size() == 3) {
      in.set_var(a[1], a[2]);
      return a[2];
    }
    fail("wrong # args: should be \"set varName ?newValue?\"");
  });
}

void Interp::register_command(const std::string& name, Command fn) {
  commands_[name] = std::move(fn);
}

std::vector<std::string> Interp::command_names() const {
  std::vector<std::string> names;
  for (const auto& [name, _] : commands_) names.push_back(name);
  return names;
}

void Interp::set_var(const std::string& name, const std::string& value) {
  vars_[name] = value;
}

std::string Interp::get_var(const std::string& name) const {
  auto it = vars_.find(name);
  if (it == vars_.end()) fail("can't read \"" + name + "\": no such variable");
  return it->second;
}

bool Interp::has_var(const std::string& name) const { return vars_.count(name) != 0; }

std::string Interp::invoke(const std::vector<std::string>& words) {
  if (words.empty()) return {};
  auto it = commands_.find(words[0]);
  if (it == commands_.end()) fail("invalid command name \"" + words[0] + "\"");
  return it->second(*this, words);
}

Interp::Compiled Interp::compile(std::string_view text) {
  if (auto it = scripts_.find(text); it != scripts_.end()) return it->second;
  if (scripts_.size() >= kMemoCapacity) scripts_.clear();
  Compiled compiled = std::make_shared<const ScriptNode>(parse_script(text));
  scripts_.emplace(std::string(text), compiled);
  return compiled;
}

std::string Interp::expand(const WordNode& word) {
  if (word.is_literal()) return word.literal();
  std::string out;
  for (const WordPart& part : word.parts) {
    switch (part.kind) {
      case WordPart::Kind::kText: out += part.text; break;
      case WordPart::Kind::kVar: out += get_var(part.text); break;
      case WordPart::Kind::kScript: out += run(*part.script); break;
    }
  }
  return out;
}

std::vector<std::string> Interp::expand(const CommandNode& command) {
  std::vector<std::string> words;
  words.reserve(command.words.size());
  for (const WordNode& word : command.words) words.push_back(expand(word));
  return words;
}

std::string Interp::run(const ScriptNode& script) {
  if (++depth_ > kMaxDepth) {
    --depth_;
    fail("too many nested evaluations");
  }
  struct DepthGuard {
    int& d;
    ~DepthGuard() { --d; }
  } guard{depth_};

  std::string last_result;
  const std::size_t complete = script.commands.size() - (script.ok ? 0 : 1);
  for (std::size_t i = 0; i < complete; ++i) last_result = invoke(expand(script.commands[i]));
  if (!script.ok) {
    (void)expand(script.commands.back());
    fail(script.error);
  }
  return last_result;
}

std::vector<std::string> Interp::take_output() {
  std::vector<std::string> taken = std::move(output_);
  output_.clear();
  output_.reserve(taken.size());
  return taken;
}

std::string Interp::eval_or_throw(std::string_view script) {
  const Compiled compiled = compile(script);
  return run(*compiled);
}

EvalResult Interp::eval(std::string_view script) {
  EvalResult result;
  try {
    result.value = eval_or_throw(script);
    result.ok = true;
  } catch (const TclError& e) {
    result.error = e.message;
  }
  return result;
}

}  // namespace dovado::tcl
