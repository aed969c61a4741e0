#include "ir/parser.h"

#include <cctype>
#include <charconv>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "support/common.h"

namespace oha::ir {

namespace {

/** Line-oriented cursor with 1-based line numbers for diagnostics. */
struct Source
{
    std::vector<std::string> lines;
    std::size_t cursor = 0;

    explicit Source(const std::string &text)
    {
        std::istringstream is(text);
        std::string line;
        while (std::getline(is, line))
            lines.push_back(stripped(line));
    }

    static std::string
    stripped(std::string line)
    {
        const std::size_t comment = line.find(';');
        if (comment != std::string::npos)
            line.erase(comment);
        const std::size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos)
            return "";
        const std::size_t last = line.find_last_not_of(" \t\r");
        return line.substr(first, last - first + 1);
    }

    bool done() const { return cursor >= lines.size(); }
    const std::string &peek() const { return lines[cursor]; }
    int lineNo() const { return static_cast<int>(cursor + 1); }
};

[[noreturn]] void
fail(const Source &src, const std::string &message)
{
    OHA_FATAL("IR parse error at line %d: %s (in '%s')", src.lineNo(),
              message.c_str(),
              src.done() ? "<eof>" : src.peek().c_str());
}

/** In-place token scanner over the source's current line. */
struct Scanner
{
    const Source &src;
    const std::string &text;
    std::size_t pos = 0;

    explicit Scanner(const Source &source)
        : src(source), text(source.peek())
    {
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    eat(const std::string &token)
    {
        skipSpace();
        if (text.compare(pos, token.size(), token) == 0) {
            pos += token.size();
            return true;
        }
        return false;
    }

    bool
    atEnd()
    {
        skipSpace();
        return pos >= text.size();
    }

    /** Identifier: [A-Za-z_][A-Za-z0-9_]* */
    std::string
    ident()
    {
        skipSpace();
        std::size_t start = pos;
        while (pos < text.size() &&
               (std::isalnum(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '_'))
            ++pos;
        return text.substr(start, pos - start);
    }

    /** Signed decimal literal: false if none starts here, a parse
     *  error if it does not fit in 64 bits. */
    bool
    number(std::int64_t &out)
    {
        skipSpace();
        std::size_t start = pos;
        if (pos < text.size() && (text[pos] == '-' || text[pos] == '+'))
            ++pos;
        std::size_t digits = pos;
        while (pos < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[pos])))
            ++pos;
        if (pos == digits) {
            pos = start;
            return false;
        }
        // from_chars takes a '-' sign but not a '+'.
        const char *first = text.data() + start + (text[start] == '+');
        if (std::from_chars(first, text.data() + pos, out).ec != std::errc{})
            fail(src, "bad integer literal");
        return true;
    }
};

/** Parser state for one module. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : src_(text) {}

    std::unique_ptr<Module>
    run()
    {
        module_ = std::make_unique<Module>();
        declarePass();
        definePass();
        module_->finalize();
        return std::move(module_);
    }

  private:
    // ---- pass 1: globals + function signatures -----------------------
    void
    declarePass()
    {
        for (src_.cursor = 0; !src_.done(); ++src_.cursor) {
            const std::string &line = src_.peek();
            if (line.rfind("global ", 0) == 0) {
                Scanner s(src_);
                s.eat("global");
                const std::string name = s.ident();
                std::int64_t size = 1;
                if (s.eat("[")) {
                    if (!s.number(size) || !s.eat("]") || size < 0 ||
                        size > std::numeric_limits<std::uint32_t>::max())
                        fail(src_, "bad global size");
                }
                if (name.empty())
                    fail(src_, "global needs a name");
                globals_[name] = module_->addGlobal(
                    name, static_cast<std::uint32_t>(size));
            } else if (line.rfind("func ", 0) == 0) {
                Scanner s(src_);
                s.eat("func");
                const std::string name = s.ident();
                if (name.empty() || !s.eat("("))
                    fail(src_, "bad function header");
                unsigned params = 0;
                while (!s.eat(")")) {
                    if (s.ident().empty())
                        fail(src_, "bad parameter list");
                    ++params;
                    s.eat(",");
                }
                funcs_[name] = module_->addFunction(name, params);
            }
        }
    }

    // ---- pass 2: blocks + instructions --------------------------------
    void
    definePass()
    {
        for (src_.cursor = 0; !src_.done(); ++src_.cursor) {
            if (src_.peek().rfind("func ", 0) != 0)
                continue;
            Scanner s(src_);
            s.eat("func");
            parseFunctionBody(funcs_.at(s.ident()));
        }
    }

    void
    parseFunctionBody(Function *func)
    {
        // Sub-pass A: create the blocks so branches can resolve.
        blocks_.clear();
        const std::size_t bodyStart = src_.cursor + 1;
        for (src_.cursor = bodyStart; !src_.done(); ++src_.cursor) {
            const std::string &line = src_.peek();
            if (line == "}")
                break;
            if (line.empty() || line.back() != ':')
                continue;
            const std::string label = line.substr(0, line.size() - 1);
            if (blocks_.count(label))
                fail(src_, "duplicate block label '" + label + "'");
            blocks_[label] = module_->addBlock(func, label);
        }
        if (src_.done())
            fail(src_, "missing '}' closing function " + func->name());
        const std::size_t bodyEnd = src_.cursor;
        if (blocks_.empty())
            fail(src_, "function " + func->name() + " has no blocks");

        // Sub-pass B: parse instructions into their blocks.
        BasicBlock *current = nullptr;
        maxReg_ = func->numParams();
        for (src_.cursor = bodyStart; src_.cursor < bodyEnd;
             ++src_.cursor) {
            const std::string &line = src_.peek();
            if (line.empty())
                continue;
            if (line.back() == ':') {
                current = blocks_.at(line.substr(0, line.size() - 1));
                continue;
            }
            if (!current)
                fail(src_, "instruction before any block label");
            current->instructions().push_back(parseInstruction());
        }
        func->reserveRegs(maxReg_);
    }

    Reg
    reg(Scanner &s)
    {
        s.skipSpace();
        if (s.eat("_"))
            return kNoReg;
        if (!s.eat("r"))
            fail(src_, "expected register");
        std::int64_t n;
        if (!s.number(n) || n < 0 || n >= kNoReg)
            fail(src_, "bad register number");
        maxReg_ = std::max(maxReg_, static_cast<unsigned>(n) + 1);
        return static_cast<Reg>(n);
    }

    std::vector<Reg>
    argList(Scanner &s)
    {
        if (!s.eat("("))
            fail(src_, "expected argument list");
        std::vector<Reg> args;
        while (!s.eat(")")) {
            args.push_back(reg(s));
            s.eat(",");
        }
        return args;
    }

    Function *
    calleeNamed(const std::string &name)
    {
        auto it = funcs_.find(name);
        if (it == funcs_.end())
            fail(src_, "unknown function '" + name + "'");
        return it->second;
    }

    BlockId
    blockNamed(Scanner &s)
    {
        const std::string label = s.ident();
        auto it = blocks_.find(label);
        if (it == blocks_.end())
            fail(src_, "unknown block label '" + label + "'");
        return it->second->id();
    }

    /** Parse a BinOpKind symbol, longest-match first. */
    bool
    binop(Scanner &s, BinOpKind &kind)
    {
        static const std::pair<const char *, BinOpKind> table[] = {
            {"<<", BinOpKind::Shl}, {">>", BinOpKind::Shr},
            {"<=", BinOpKind::Le},  {">=", BinOpKind::Ge},
            {"==", BinOpKind::Eq},  {"!=", BinOpKind::Ne},
            {"+", BinOpKind::Add},  {"-", BinOpKind::Sub},
            {"*", BinOpKind::Mul},  {"/", BinOpKind::Div},
            {"%", BinOpKind::Mod},  {"&", BinOpKind::And},
            {"|", BinOpKind::Or},   {"^", BinOpKind::Xor},
            {"<", BinOpKind::Lt},   {">", BinOpKind::Gt},
        };
        for (const auto &[symbol, op] : table) {
            if (s.eat(symbol)) {
                kind = op;
                return true;
            }
        }
        return false;
    }

    Instruction
    parseInstruction()
    {
        Scanner s(src_);
        Instruction ins;

        // ---- void statements ---------------------------------------
        if (s.eat("ret")) {
            ins.op = Opcode::Ret;
            if (!s.atEnd())
                ins.a = reg(s);
            return ins;
        }
        if (s.eat("br ")) {
            ins.op = Opcode::Br;
            ins.target = blockNamed(s);
            return ins;
        }
        if (s.eat("condbr")) {
            ins.op = Opcode::CondBr;
            ins.a = reg(s);
            if (!s.eat(","))
                fail(src_, "condbr needs two labels");
            ins.target = blockNamed(s);
            if (!s.eat(","))
                fail(src_, "condbr needs two labels");
            ins.target2 = blockNamed(s);
            return ins;
        }
        if (s.eat("lock")) {
            ins.op = Opcode::Lock;
            ins.a = reg(s);
            return ins;
        }
        if (s.eat("unlock")) {
            ins.op = Opcode::Unlock;
            ins.a = reg(s);
            return ins;
        }
        if (s.eat("output")) {
            ins.op = Opcode::Output;
            ins.a = reg(s);
            return ins;
        }
        if (s.eat("*")) { // *rX = rY
            ins.op = Opcode::Store;
            ins.a = reg(s);
            if (!s.eat("="))
                fail(src_, "store needs '='");
            ins.b = reg(s);
            return ins;
        }

        // ---- definitions: <reg> = <rhs> ----------------------------
        ins.dest = reg(s);
        if (!s.eat("="))
            fail(src_, "expected '='");

        if (s.eat("alloc")) {
            ins.op = Opcode::Alloc;
            if (!s.number(ins.imm))
                fail(src_, "alloc needs a size");
            return ins;
        }
        if (s.eat("call")) {
            ins.op = Opcode::Call;
            ins.callee = calleeNamed(s.ident())->id();
            ins.args = argList(s);
            return ins;
        }
        if (s.eat("icall")) {
            ins.op = Opcode::ICall;
            if (!s.eat("*"))
                fail(src_, "icall needs '*reg'");
            ins.a = reg(s);
            ins.args = argList(s);
            return ins;
        }
        if (s.eat("spawn")) {
            ins.op = Opcode::Spawn;
            ins.callee = calleeNamed(s.ident())->id();
            ins.args = argList(s);
            return ins;
        }
        if (s.eat("join")) {
            ins.op = Opcode::Join;
            ins.a = reg(s);
            return ins;
        }
        if (s.eat("input")) {
            ins.op = Opcode::Input;
            if (!s.eat("["))
                fail(src_, "input needs '[index]'");
            if (!s.number(ins.imm))
                fail(src_, "input needs a base index");
            if (s.eat("+"))
                ins.b = reg(s);
            if (!s.eat("]"))
                fail(src_, "input needs closing ']'");
            return ins;
        }
        if (s.eat("&")) {
            // &name, &rY[k], &rY[rZ]
            s.skipSpace();
            if (s.text.compare(s.pos, 1, "r") == 0 &&
                s.pos + 1 < s.text.size() &&
                std::isdigit(
                    static_cast<unsigned char>(s.text[s.pos + 1]))) {
                ins.op = Opcode::Gep;
                ins.a = reg(s);
                if (!s.eat("["))
                    fail(src_, "gep needs '[field]'");
                if (!s.number(ins.imm)) {
                    ins.imm = 0;
                    ins.b = reg(s);
                }
                if (!s.eat("]"))
                    fail(src_, "gep needs closing ']'");
                return ins;
            }
            const std::string name = s.ident();
            if (auto git = globals_.find(name); git != globals_.end()) {
                ins.op = Opcode::GlobalAddr;
                ins.globalId = git->second;
                return ins;
            }
            if (auto fit = funcs_.find(name); fit != funcs_.end()) {
                ins.op = Opcode::FuncAddr;
                ins.callee = fit->second->id();
                return ins;
            }
            fail(src_, "unknown symbol '&" + name + "'");
        }
        if (s.eat("*")) { // load
            ins.op = Opcode::Load;
            ins.a = reg(s);
            return ins;
        }
        if (std::int64_t value; s.number(value)) {
            ins.op = Opcode::ConstInt;
            ins.imm = value;
            return ins;
        }
        // rY, possibly followed by a binary operator.
        ins.a = reg(s);
        BinOpKind kind;
        if (binop(s, kind)) {
            ins.op = Opcode::BinOp;
            ins.binop = kind;
            ins.b = reg(s);
            return ins;
        }
        ins.op = Opcode::Assign;
        return ins;
    }

    Source src_;
    std::unique_ptr<Module> module_;
    std::map<std::string, Function *> funcs_;
    std::map<std::string, std::uint32_t> globals_;
    std::map<std::string, BasicBlock *> blocks_;
    unsigned maxReg_ = 0;
};

} // namespace

std::unique_ptr<Module>
parseModule(const std::string &text)
{
    return Parser(text).run();
}

} // namespace oha::ir
